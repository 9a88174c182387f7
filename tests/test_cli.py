import errno
import json
import hashlib
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import fisherhash
from fisherhash import evaluation
from fisherhash.binary_codes import BinaryCodeMatrix
from fisherhash.cli import main
from fisherhash.datasets import DatasetManifest, save_manifest, write_features, write_labels
from fisherhash.encoder import EncoderSpec, EncoderState, init_state, save_checkpoint

from oracles import reference_search, reference_write_results_csv


def run_cli(*argv):
    return main(list(argv))


def write_train_config(path, *, epochs=3, seed=5, classes=2, per_class=20, dim=4,
                       separation=6.0, extra_hyper=None):
    hyper = {
        "bits": 2, "epochs": epochs, "batch_size": 16, "lr": 0.05, "seed": seed,
        "mu": 4.0, "nu": 8.0, "eta": 0.2,
        "center_inner_lr": 0.02, "center_inner_steps": 40,
    }
    if extra_hyper:
        hyper.update(extra_hyper)
    cfg = {
        "dataset": {"synthetic": {
            "classes": classes, "per_class": per_class, "dim": dim,
            "separation": separation, "seed": 77, "query_fraction": 0.2,
        }},
        "hyper": hyper,
        "encoder": {"hidden_layers": [[8, "relu"]], "seed": seed},
    }
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return cfg


FIXTURE_DB = np.array([
    [1, 1, 1, 1, -1],
    [1, 1, 1, -1, -1],
    [1, 1, -1, -1, -1],
    [1, -1, -1, -1, -1],
])
FIXTURE_Q = np.array([
    [1, -1, -1],
    [1, -1, 1],
    [1, -1, -1],
    [1, -1, 1],
])
FIXTURE_DB_LABELS = [{0}, {1}, {1}, {0}, {2}]
FIXTURE_Q_LABELS = [{0}, {2}, {0, 1}]


def write_eval_fixture(tmp_path):
    BinaryCodeMatrix.from_signs(FIXTURE_DB).save(tmp_path / "db.fhsh")
    BinaryCodeMatrix.from_signs(FIXTURE_Q).save(tmp_path / "q.fhsh")
    write_labels(tmp_path / "db_labels.txt", FIXTURE_DB_LABELS)
    write_labels(tmp_path / "q_labels.txt", FIXTURE_Q_LABELS)


def make_unreadable(path, corrupt):
    """Put a non-UTF-8 byte into a text file, or replace it by a directory."""
    if corrupt == "directory":
        path.unlink()
        path.mkdir()
    else:
        path.write_bytes(b"\xff" + path.read_bytes())


class TestTrainCommand:
    def test_two_class_run_writes_artifacts_and_map(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_train_config(cfg_path, epochs=8)
        out = tmp_path / "run"
        assert run_cli("train", "--config", str(cfg_path), "--out", str(out)) == 0
        for name in ("encoder.fhnn", "codes.fhsh", "centers.fhsh", "report.json", "meta.json"):
            assert (out / name).exists()
        report = json.loads((out / "report.json").read_text())
        assert report["train_map"] == 1.0
        assert report["config_hash"] == json.loads((out / "meta.json").read_text())["config_hash"]

    def test_report_epochs_are_finite_numbers_without_null(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_train_config(cfg_path, epochs=3)
        out = tmp_path / "run"
        assert run_cli("train", "--config", str(cfg_path), "--out", str(out)) == 0
        text = (out / "report.json").read_text()
        assert "null" not in text
        epochs = json.loads(text)["epochs"]
        assert len(epochs) == 3
        for record in epochs:
            assert all(type(v) in (int, float) and np.isfinite(v) for v in record.values())
        assert [sorted(r) for r in epochs] == 2 * [
            ["code_pair_loss", "epoch", "inter_loss", "intra_loss", "quant_loss"]
        ] + [["code_pair_loss", "epoch", "inter_loss", "intra_loss", "pair_loss", "quant_loss", "total"]]
        rows = (out / "report.csv").read_text().splitlines()
        assert rows[0] == "epoch,code_pair_loss,intra_loss,inter_loss,quant_loss,pair_loss,total"
        assert [row.endswith(",,") for row in rows[1:]] == [True, True, False]

    def test_missing_dataset_path_exits_3(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "dataset": {"manifest": "missing/manifest.json"},
            "hyper": {"bits": 2, "epochs": 1},
        }))
        code = run_cli("train", "--config", str(cfg_path), "--out", str(tmp_path / "o"))
        assert code == 3
        assert "missing/manifest.json" in capsys.readouterr().err

    def test_zero_epochs_succeeds(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_train_config(cfg_path, epochs=0)
        out = tmp_path / "run"
        assert run_cli("train", "--config", str(cfg_path), "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["epochs"] == []

    def test_invalid_hyper_exits_2_with_json_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_train_config(cfg_path, extra_hyper={"batch_size": 1})
        code = run_cli("train", "--config", str(cfg_path),
                       "--out", str(tmp_path / "o"), "--json")
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert "batch_size" in err["message"]

    @pytest.mark.parametrize("probe", [
        {"bits": 4.5},
        {"epochs": True},
        {"lr": float("nan")},
        {"phi": float("inf")},
        {"warm_start_centers": True},
        {"reinit_centers_each_epoch": True},
        {"epochs": 0, "center_inner_steps": 0},
        {"epochs": 0, "center_rounds": -3},
        {"epochs": 0, "center_inner_lr": 0.0},
        # A term is switched off by its weight (phi, mu, nu, margin) set to 0.
        {"use_pair": False},
        {"use_intra": False},
        {"use_inter": False},
        {"use_margin": False},
    ], ids=["fractional-bits", "bool-epochs", "nan-lr", "inf-phi",
            "removed-warm-start", "removed-reinit", "zero-center-steps",
            "negative-center-rounds", "zero-center-lr", "removed-use-pair",
            "removed-use-intra", "removed-use-inter", "removed-use-margin"])
    def test_malformed_hyper_value_exits_2(self, tmp_path, capsys, probe):
        cfg_path = tmp_path / "cfg.json"
        write_train_config(cfg_path, epochs=1, extra_hyper=probe)
        assert run_cli("train", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 2
        assert list(probe)[-1] in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("classes", "abc"),
        ("per_class", None),
        ("separation", [1.0]),
        # Synthetic values follow hyper's rule: an integer or a finite real, never a bool.
        ("per_class", 20.9),
        ("classes", "2"),
        ("separation", "3.0"),
        ("seed", True),
        ("seed", 1.7),
    ], ids=["text-classes", "null-per-class", "list-separation", "fractional-per-class",
            "numeric-text-classes", "numeric-text-separation", "bool-seed", "fractional-seed"])
    def test_malformed_synthetic_spec_exits_2(self, tmp_path, field, value):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_train_config(cfg_path, epochs=1)
        cfg["dataset"]["synthetic"][field] = value
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert run_cli("train", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 2

    @pytest.mark.parametrize("edit", [
        lambda cfg: cfg["encoder"].update(hidden_layers=[["abc", "relu"]]),
        lambda cfg: cfg["encoder"].update(hidden_layers=5),
        lambda cfg: cfg["encoder"].update(hiden_layers=[[8, "relu"]]),
        lambda cfg: cfg["dataset"]["synthetic"].update(clases=3),
        lambda cfg: cfg["dataset"].update(manifests="manifest.json"),
        lambda cfg: cfg.update(hyperparams={"bits": 4}),
        lambda cfg: cfg.update(encoder=[[8, "relu"]]),
        lambda cfg: cfg["encoder"].update(hidden_layers=[[8.9, "relu"]]),
        lambda cfg: cfg["encoder"].update(seed=2.5),
    ], ids=["text-hidden-width", "scalar-hidden-layers", "misspelt-hidden-layers",
            "unknown-synthetic-key", "unknown-dataset-key", "unknown-top-level-key",
            "list-encoder-section", "fractional-hidden-width", "fractional-encoder-seed"])
    def test_malformed_config_section_exits_2(self, tmp_path, capsys, edit):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_train_config(cfg_path, epochs=1)
        edit(cfg)
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert run_cli("train", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 2
        assert "error (config)" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt, code", [
        (lambda m: m, 0),
        (lambda m: {**m, "input_dim": "abc"}, 3),
        (lambda m: [m], 3),
        (lambda m: {**m, "splits": {"train": "x"}}, 3),
        (lambda m: {**m, "n_items": None}, 3),
        (lambda m: {**m, "splits": "x"}, 3),
        (lambda m: {**m, "splits": {"train": 3}}, 3),
        (lambda m: {**m, "splits": {**m["splits"], "train": [0.5, 1.5, 2.5]}}, 3),
        (lambda m: {**m, "input_dim": float("inf")}, 3),
        (lambda m: {**m, "input_dim": 4.5}, 3),
        (lambda m: {**m, "feature_path": 5}, 3),
        (lambda m: {**m, "label_path": [1]}, 3),
    ], ids=["intact", "text-input-dim", "list-manifest", "text-split", "null-n-items",
            "text-splits", "scalar-split", "fractional-split", "infinite-input-dim",
            "fractional-input-dim", "number-feature-path", "list-label-path"])
    def test_corrupt_manifest_field_exits_3(self, tmp_path, capsys, corrupt, code):
        rng = np.random.default_rng(0)
        write_features(tmp_path / "x.fhft", rng.normal(size=(4, 8)))
        write_labels(tmp_path / "y.txt", [{i % 2} for i in range(8)])
        save_manifest(DatasetManifest(
            name="toy", feature_path="x.fhft", label_path="y.txt", input_dim=4, n_items=8,
            num_classes=2, splits={"train": list(range(6)), "query": [6, 7]},
        ), tmp_path / "manifest.json")
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        (tmp_path / "manifest.json").write_text(json.dumps(corrupt(manifest)))
        cfg_path = tmp_path / "cfg.json"
        cfg = write_train_config(cfg_path, epochs=1)
        cfg["dataset"] = {"manifest": "manifest.json"}
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert run_cli("train", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == code

    @pytest.mark.parametrize("train_split, message", [
        ([], "the train split is empty"),
        ([0, 2, 4], "the train split has no item of class 1"),
    ], ids=["empty-split", "one-class-split"])
    def test_train_split_without_every_class_exits_3(self, tmp_path, capsys, train_split,
                                                      message):
        write_features(tmp_path / "x.fhft", np.random.default_rng(0).normal(size=(4, 8)))
        write_labels(tmp_path / "y.txt", [{i % 2} for i in range(8)])
        save_manifest(DatasetManifest(
            name="toy", feature_path="x.fhft", label_path="y.txt", input_dim=4, n_items=8,
            num_classes=2, splits={"train": train_split, "query": [6, 7]},
        ), tmp_path / "manifest.json")
        cfg_path = tmp_path / "cfg.json"
        cfg = write_train_config(cfg_path, epochs=1)
        cfg["dataset"] = {"manifest": "manifest.json"}
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert run_cli("train", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert err.startswith("error (data)") and message in err
        assert not (tmp_path / "o").exists()

    def test_query_fraction_leaving_no_training_items_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_train_config(cfg_path, epochs=1, per_class=2)
        cfg["dataset"]["synthetic"]["query_fraction"] = 0.8
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert run_cli("train", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error (config)") and "no training items" in err

    @pytest.mark.parametrize("target, corrupt", [
        ("manifest.json", "non-utf8"),
        ("manifest.json", "directory"),
        ("y.txt", "non-utf8"),
        ("y.txt", "directory"),
    ], ids=["non-utf8-manifest", "manifest-is-directory", "non-utf8-labels",
            "labels-is-directory"])
    def test_unreadable_manifest_or_labels_exit_3(self, tmp_path, capsys, target, corrupt):
        write_features(tmp_path / "x.fhft", np.zeros((4, 8)))
        write_labels(tmp_path / "y.txt", [{i % 2} for i in range(8)])
        save_manifest(DatasetManifest(
            name="toy", feature_path="x.fhft", label_path="y.txt", input_dim=4, n_items=8,
            num_classes=2, splits={"train": list(range(6)), "query": [6, 7]},
        ), tmp_path / "manifest.json")
        make_unreadable(tmp_path / target, corrupt)
        cfg_path = tmp_path / "cfg.json"
        cfg = write_train_config(cfg_path, epochs=1)
        cfg["dataset"] = {"manifest": "manifest.json"}
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert run_cli("train", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert err.startswith("error (data)") and target in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("shape, lr", [((3, 30, 8), 1e6), ((4, 25, 6), 30.0)],
                             ids=["gradient-overflow", "representation-overflow"])
    def test_diverging_run_exits_4_with_one_json_line(self, tmp_path, shape, lr):
        # A process of its own, so numpy's warnings would reach stderr as a user sees it.
        cfg_path = tmp_path / "cfg.json"
        classes, per_class, dim = shape
        write_train_config(cfg_path, classes=classes, per_class=per_class, dim=dim,
                           extra_hyper={"lr": lr})
        out = tmp_path / "o"
        src = str(Path(fisherhash.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONWARNINGS": "default",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "fisherhash.cli", "train", "--config", str(cfg_path),
             "--out", str(out), "--json"], capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 4, proc.stderr
        assert len(proc.stderr.splitlines()) == 1, proc.stderr
        assert json.loads(proc.stderr)["error"] == "numerical"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_missing_config_flag_exits_2(self, tmp_path, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--out", str(tmp_path / "o"))
        assert exc.value.code == 2
        assert "--config" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("corrupt", ["non-utf8", "directory"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, corrupt):
        cfg_path = tmp_path / "cfg.json"
        write_train_config(cfg_path, epochs=1)
        make_unreadable(cfg_path, corrupt)
        assert run_cli("train", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error (config)") and "cfg.json" in err
        assert not (tmp_path / "o").exists()

    def test_refuses_nonempty_out_without_force(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        write_train_config(cfg_path, epochs=1)
        out = tmp_path / "run"
        out.mkdir()
        (out / "stale.txt").write_text("old")
        assert run_cli("train", "--config", str(cfg_path), "--out", str(out)) == 2
        assert run_cli("train", "--config", str(cfg_path), "--out", str(out), "--force") == 0
        assert not (out / "stale.txt").exists()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg = write_train_config(cfg_path, epochs=0, seed=5)
        del cfg["encoder"]["seed"]  # encoder init follows hyper.seed
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli("train", "--config", str(cfg_path), "--out", str(out_a), "--seed", "9") == 0
        assert run_cli("train", "--config", str(cfg_path), "--out", str(out_b)) == 0
        meta = json.loads((out_a / "meta.json").read_text())
        assert meta["resolved"]["seed_override"] == 9
        a = (out_a / "codes.fhsh").read_bytes()
        b = (out_b / "codes.fhsh").read_bytes()
        assert a != b


class TestDeterminism:
    def test_bit_identical_artifacts_across_runs_and_threads(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_train_config(cfg_path, epochs=4)
        digests = []
        for name, threads in (("r1", "1"), ("r2", "1"), ("r3", "8")):
            out = tmp_path / name
            assert run_cli("train", "--config", str(cfg_path),
                           "--out", str(out), "--threads", threads) == 0
            blob = b"".join(
                (out / f).read_bytes()
                for f in ("encoder.fhnn", "codes.fhsh", "centers.fhsh",
                          "centers.v.f64", "report.json", "report.csv", "meta.json")
            )
            digests.append(hashlib.sha256(blob).hexdigest())
        assert len(set(digests)) == 1


class TestEncodeIndexQuery:
    def test_pipeline(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        write_train_config(cfg_path, epochs=6)
        run_dir = tmp_path / "run"
        assert run_cli("train", "--config", str(cfg_path), "--out", str(run_dir)) == 0

        # encode the query split of the same synthetic dataset
        from fisherhash.datasets import make_synthetic
        ds = make_synthetic(2, 20, 4, 6.0, seed=77, query_fraction=0.2)
        q_idx = ds.split("query")
        write_features(tmp_path / "queries.fhft", ds.features[:, q_idx])
        enc_dir = tmp_path / "enc"
        assert run_cli("encode", "--checkpoint", str(run_dir / "encoder.fhnn"),
                       "--features", str(tmp_path / "queries.fhft"),
                       "--out", str(enc_dir)) == 0
        q_codes = BinaryCodeMatrix.load(enc_dir / "codes.fhsh")
        assert q_codes.n == len(q_idx) and q_codes.K == 2

        # index the database codes with labels
        train_idx = ds.split("train")
        write_labels(tmp_path / "db_labels.txt", ds.subset_labels(train_idx))
        idx_dir = tmp_path / "index"
        assert run_cli("index", "--codes", str(run_dir / "codes.fhsh"),
                       "--labels", str(tmp_path / "db_labels.txt"),
                       "--classes", "2", "--name", "toy",
                       "--out", str(idx_dir)) == 0
        assert json.loads((idx_dir / "index.json").read_text())["items"] == len(train_idx)

        # query it
        q_dir = tmp_path / "qres"
        assert run_cli("query", "--index", str(idx_dir),
                       "--queries", str(enc_dir / "codes.fhsh"),
                       "--k", "3", "--out", str(q_dir)) == 0
        lines = (q_dir / "results.csv").read_text().splitlines()
        assert lines[0] == "query,rank,item,distance"
        assert len(lines) == 1 + 3 * q_codes.n

    @pytest.mark.parametrize("head", [
        [1, 2**30, 4],
        [1, 1, 2**31, 2**31, 0],
    ], ids=["huge-layer-count", "huge-layer-dims"])
    def test_checkpoint_header_sizes_beyond_file_exit_3(self, tmp_path, capsys, head):
        # An FHNN header of (version, layers, input_dim, then per layer
        # out_dim and activation) claiming more than the file holds.
        (tmp_path / "enc.fhnn").write_bytes(b"FHNN" + np.array(head, dtype="<u4").tobytes())
        write_features(tmp_path / "x.fhft", np.zeros((4, 3)))
        code = run_cli("encode", "--checkpoint", str(tmp_path / "enc.fhnn"),
                       "--features", str(tmp_path / "x.fhft"), "--out", str(tmp_path / "o"))
        assert code == 3
        assert "truncated" in capsys.readouterr().err

    @pytest.mark.parametrize("checkpoint, features, message", [
        ("valid", np.zeros((5, 3)), "feature dim 5 != checkpoint input dim 4"),
        ("no-layers", np.zeros((4, 3)), "0 layers"),
        ("zero-input-width", np.zeros((4, 3)), "input width 0"),
        ("zero-output-width", np.zeros((4, 3)), "layer 0 has output width 0"),
        ("nan-weight", np.zeros((4, 3)), "non-finite parameters at layer 0"),
        ("inf-bias", np.zeros((4, 3)), "non-finite parameters at layer 0"),
        ("valid", np.zeros((0, 3)), "empty feature table"),
        ("valid", np.zeros((4, 0)), "empty feature table"),
        ("trailing-bytes", np.zeros((4, 3)), "3 bytes after the last layer"),
        ("relu-last", np.zeros((4, 3)), "last layer's activation is relu, not identity"),
    ], ids=["dim-mismatch", "no-layers", "zero-input-width", "zero-output-width",
            "nan-weight", "inf-bias", "zero-dim-features", "zero-item-features",
            "trailing-bytes", "relu-last"])
    def test_unusable_checkpoint_or_features_exit_3(self, tmp_path, capsys, checkpoint,
                                                    features, message):
        path = tmp_path / "enc.fhnn"
        w, b = np.ones((2, 4)), np.zeros(2)
        if checkpoint == "no-layers":
            path.write_bytes(b"FHNN" + np.array([1, 0, 4], dtype="<u4").tobytes())
        elif checkpoint == "zero-input-width":
            save_checkpoint(EncoderState([np.ones((2, 0))], [b], ["identity"]), path)
        elif checkpoint == "zero-output-width":
            save_checkpoint(EncoderState([np.ones((0, 4))], [np.zeros(0)], ["identity"]), path)
        else:
            if checkpoint == "nan-weight":
                w[1, 2] = np.nan
            if checkpoint == "inf-bias":
                b[0] = np.inf
            last = "relu" if checkpoint == "relu-last" else "identity"
            save_checkpoint(EncoderState([w], [b], [last]), path)
        if checkpoint == "trailing-bytes":
            path.write_bytes(path.read_bytes() + bytes(3))
        write_features(tmp_path / "x.fhft", features)
        code = run_cli("encode", "--checkpoint", str(path),
                       "--features", str(tmp_path / "x.fhft"), "--out", str(tmp_path / "o"))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error (data)") and message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["query", "eval"])
    def test_code_length_mismatch_exits_3(self, tmp_path, capsys, command):
        write_eval_fixture(tmp_path)  # 4-bit codes
        BinaryCodeMatrix.from_signs(np.ones((8, 3), dtype=np.int8)).save(tmp_path / "q8.fhsh")
        assert run_cli("index", "--codes", str(tmp_path / "db.fhsh"),
                       "--labels", str(tmp_path / "db_labels.txt"),
                       "--classes", "3", "--out", str(tmp_path / "index")) == 0
        capsys.readouterr()
        argv = {
            "query": ["--index", str(tmp_path / "index"), "--queries", str(tmp_path / "q8.fhsh"),
                      "--k", "2"],
            "eval": ["--db-codes", str(tmp_path / "db.fhsh"),
                     "--db-labels", str(tmp_path / "db_labels.txt"),
                     "--query-codes", str(tmp_path / "q8.fhsh"),
                     "--query-labels", str(tmp_path / "q_labels.txt"),
                     "--classes", "3", "--ks", "1,5"],
        }[command]
        assert run_cli(command, *argv, "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert err.startswith("error (data)") and "q8.fhsh: 8-bit codes" in err
        assert not (tmp_path / "o").exists()

    def test_overflowing_encoder_output_exits_4(self, tmp_path, capsys):
        # Finite weights and features whose product overflows float64.
        save_checkpoint(EncoderState([np.full((2, 4), 1e300)], [np.zeros(2)], ["identity"]),
                        tmp_path / "enc.fhnn")
        write_features(tmp_path / "x.fhft", np.full((4, 3), 1e30))
        code = run_cli("encode", "--checkpoint", str(tmp_path / "enc.fhnn"),
                       "--features", str(tmp_path / "x.fhft"), "--out", str(tmp_path / "o"))
        assert code == 4
        assert capsys.readouterr().err.startswith("error (numerical)")
        assert not (tmp_path / "o").exists()

    def test_query_k_out_of_range(self, tmp_path, capsys):
        write_eval_fixture(tmp_path)
        idx_dir = tmp_path / "index"
        assert run_cli("index", "--codes", str(tmp_path / "db.fhsh"),
                       "--labels", str(tmp_path / "db_labels.txt"),
                       "--classes", "3", "--out", str(idx_dir)) == 0
        code = run_cli("query", "--index", str(idx_dir),
                       "--queries", str(tmp_path / "q.fhsh"),
                       "--k", "9", "--out", str(tmp_path / "q"))
        assert code == 2

    def test_results_csv_matches_per_line_writer(self, tmp_path):
        # 6-bit codes from 5 prototypes over 300 items: every query has
        # wide distance ties, so the ranks within a tie must follow item order.
        rng = np.random.default_rng(31)
        protos = rng.choice([-1, 1], size=(6, 5))
        db = BinaryCodeMatrix.from_signs(protos[:, rng.integers(0, 5, size=300)])
        queries = BinaryCodeMatrix.from_signs(rng.choice([-1, 1], size=(6, 7)))
        db.save(tmp_path / "db.fhsh")
        queries.save(tmp_path / "q.fhsh")
        write_labels(tmp_path / "db_labels.txt", [{0}] * db.n)
        idx_dir = tmp_path / "index"
        assert run_cli("index", "--codes", str(tmp_path / "db.fhsh"),
                       "--labels", str(tmp_path / "db_labels.txt"),
                       "--classes", "1", "--out", str(idx_dir)) == 0
        assert run_cli("query", "--index", str(idx_dir), "--queries", str(tmp_path / "q.fhsh"),
                       "--k", "80", "--out", str(tmp_path / "q")) == 0
        reference_write_results_csv(reference_search(queries, db, 80), tmp_path / "want.csv")
        got = (tmp_path / "q" / "results.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert len(got.splitlines()) == 1 + 7 * 80

    @pytest.mark.parametrize("n_queries, k", [(2, 1365), (16, 256), (17, 241)],
                             ids=["chunk-1", "chunk", "chunk+1"])
    def test_results_csv_across_a_chunk_seam(self, tmp_path, n_queries, k):
        # results.csv is written in chunks of max(1, 4,096 // k) whole
        # queries: 3, 16 and 16 here.  The queries end one query short of a
        # seam, exactly on it, and one query past it.
        assert n_queries - max(1, evaluation._CHUNK_ROWS // k) in (-1, 0, 1)
        rng = np.random.default_rng(k)
        protos = rng.choice([-1, 1], size=(10, 6))
        db = BinaryCodeMatrix.from_signs(protos[:, rng.integers(0, 6, size=1400)])
        queries = BinaryCodeMatrix.from_signs(rng.choice([-1, 1], size=(10, n_queries)))
        db.save(tmp_path / "db.fhsh")
        queries.save(tmp_path / "q.fhsh")
        write_labels(tmp_path / "db_labels.txt", [{0}] * db.n)
        assert run_cli("index", "--codes", str(tmp_path / "db.fhsh"),
                       "--labels", str(tmp_path / "db_labels.txt"),
                       "--classes", "1", "--out", str(tmp_path / "index")) == 0
        assert run_cli("query", "--index", str(tmp_path / "index"),
                       "--queries", str(tmp_path / "q.fhsh"),
                       "--k", str(k), "--out", str(tmp_path / "q")) == 0
        reference_write_results_csv(reference_search(queries, db, k), tmp_path / "want.csv")
        got = (tmp_path / "q" / "results.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert len(got.splitlines()) == 1 + n_queries * k

    def test_query_peaks_below_the_size_of_results_csv(self, tmp_path, monkeypatch):
        # 2,000 queries at k = 100; the ranking is done before tracing starts.
        rng = np.random.default_rng(2000)
        db = BinaryCodeMatrix.from_signs(rng.choice([-1, 1], size=(16, 200)))
        queries = BinaryCodeMatrix.from_signs(rng.choice([-1, 1], size=(16, 2000)))
        db.save(tmp_path / "db.fhsh")
        queries.save(tmp_path / "q.fhsh")
        write_labels(tmp_path / "db_labels.txt", [{0}] * db.n)
        assert run_cli("index", "--codes", str(tmp_path / "db.fhsh"),
                       "--labels", str(tmp_path / "db_labels.txt"),
                       "--classes", "1", "--out", str(tmp_path / "index")) == 0
        ready = evaluation.search(queries, db, 100)
        monkeypatch.setattr("fisherhash.cli.search", lambda *args, **kwargs: ready)
        tracemalloc.start()
        try:
            assert run_cli("query", "--index", str(tmp_path / "index"),
                           "--queries", str(tmp_path / "q.fhsh"),
                           "--k", "100", "--out", str(tmp_path / "q")) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < (tmp_path / "q" / "results.csv").stat().st_size

    @pytest.mark.parametrize("command, flag", [
        ("eval", "--db-codes"),
        ("query", "--queries"),
        ("index", "--codes"),
        ("encode", "--checkpoint"),
        ("encode", "--features"),
    ])
    def test_binary_input_that_is_a_directory_exits_3(self, tmp_path, capsys, command, flag):
        write_eval_fixture(tmp_path)
        save_checkpoint(init_state(EncoderSpec(input_dim=4, output_dim=2)), tmp_path / "enc.fhnn")
        write_features(tmp_path / "x.fhft", np.zeros((4, 3)))
        assert run_cli("index", "--codes", str(tmp_path / "db.fhsh"),
                       "--labels", str(tmp_path / "db_labels.txt"),
                       "--classes", "3", "--out", str(tmp_path / "index")) == 0
        at = {name: str(tmp_path / name)
              for name in ("db.fhsh", "db_labels.txt", "q.fhsh", "q_labels.txt", "index",
                           "enc.fhnn", "x.fhft")}
        argv = {
            "eval": ["--db-codes", at["db.fhsh"], "--db-labels", at["db_labels.txt"],
                     "--query-codes", at["q.fhsh"], "--query-labels", at["q_labels.txt"],
                     "--classes", "3"],
            "query": ["--index", at["index"], "--queries", at["q.fhsh"], "--k", "2"],
            "index": ["--codes", at["db.fhsh"], "--labels", at["db_labels.txt"], "--classes", "3"],
            "encode": ["--checkpoint", at["enc.fhnn"], "--features", at["x.fhft"]],
        }[command]
        target = tmp_path / argv[argv.index(flag) + 1]
        target.unlink()
        target.mkdir()
        capsys.readouterr()
        assert run_cli(command, *argv, "--out", str(tmp_path / "o")) == 3
        err = capsys.readouterr().err
        assert err.startswith("error (data)") and target.name in err and "directory" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("head", [
        [1, 0, 5],
        [1, 4, 0],
        [1, 4],
    ], ids=["no-bits", "no-items", "header-cut-in-a-field"])
    def test_malformed_code_header_exits_3(self, tmp_path, capsys, head):
        # An FHSH header of (version, K, N) and no payload, which is the
        # payload size K = 0 or N = 0 claims; the last ends 2 bytes into N.
        write_eval_fixture(tmp_path)
        db = tmp_path / "db.fhsh"
        cut = b"\x05\x00" if len(head) == 2 else b""
        db.write_bytes(b"FHSH" + np.array(head, dtype="<u4").tobytes() + cut)
        capsys.readouterr()
        code = run_cli("eval", "--db-codes", str(db), "--db-labels", str(tmp_path / "db_labels.txt"),
                       "--query-codes", str(tmp_path / "q.fhsh"),
                       "--query-labels", str(tmp_path / "q_labels.txt"),
                       "--classes", "3", "--out", str(tmp_path / "o"))
        assert code == 3
        assert capsys.readouterr().err.startswith("error (data)")
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("text", [
        '{"classes": 3',
        '[3]',
        '{"name": "index", "bits": 4}',
        '{"classes": "3"}',
        '{"classes": 3.5}',
    ], ids=["truncated", "not-an-object", "missing-classes", "text-classes",
            "fractional-classes"])
    def test_bad_index_json_exits_3(self, tmp_path, capsys, text):
        write_eval_fixture(tmp_path)
        idx_dir = tmp_path / "index"
        assert run_cli("index", "--codes", str(tmp_path / "db.fhsh"),
                       "--labels", str(tmp_path / "db_labels.txt"),
                       "--classes", "3", "--out", str(idx_dir)) == 0
        (idx_dir / "index.json").write_text(text, encoding="utf-8")
        code = run_cli("query", "--index", str(idx_dir),
                       "--queries", str(tmp_path / "q.fhsh"),
                       "--k", "2", "--out", str(tmp_path / "q"))
        assert code == 3
        assert "index.json" in capsys.readouterr().err

    @pytest.mark.parametrize("target, corrupt", [
        ("index.json", "non-utf8"),
        ("index.json", "directory"),
        ("labels.txt", "non-utf8"),
        ("labels.txt", "directory"),
    ], ids=["non-utf8-index-json", "index-json-is-directory", "non-utf8-labels",
            "labels-is-directory"])
    def test_unreadable_index_file_exits_3(self, tmp_path, capsys, target, corrupt):
        write_eval_fixture(tmp_path)
        idx_dir = tmp_path / "index"
        assert run_cli("index", "--codes", str(tmp_path / "db.fhsh"),
                       "--labels", str(tmp_path / "db_labels.txt"),
                       "--classes", "3", "--out", str(idx_dir)) == 0
        make_unreadable(idx_dir / target, corrupt)
        capsys.readouterr()
        code = run_cli("query", "--index", str(idx_dir),
                       "--queries", str(tmp_path / "q.fhsh"),
                       "--k", "2", "--out", str(tmp_path / "q"))
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error (data)") and target in err


class TestThreadsFlag:
    def test_query_and_eval_outputs_do_not_depend_on_threads(self, tmp_path, capsys):
        rng = np.random.default_rng(21)
        BinaryCodeMatrix.from_signs(rng.choice([-1, 1], size=(70, 300))).save(tmp_path / "db.fhsh")
        BinaryCodeMatrix.from_signs(rng.choice([-1, 1], size=(70, 40))).save(tmp_path / "q.fhsh")
        write_labels(tmp_path / "db_labels.txt",
                     [{int(c)} for c in rng.integers(0, 4, size=300)])
        write_labels(tmp_path / "q_labels.txt",
                     [{int(c)} for c in rng.integers(0, 4, size=40)])
        idx_dir = tmp_path / "index"
        assert run_cli("index", "--codes", str(tmp_path / "db.fhsh"),
                       "--labels", str(tmp_path / "db_labels.txt"),
                       "--classes", "4", "--out", str(idx_dir)) == 0

        def query(threads, out):
            return run_cli("query", "--index", str(idx_dir), "--queries", str(tmp_path / "q.fhsh"),
                           "--k", "25", "--threads", threads, "--out", str(tmp_path / out))

        def evaluate(threads, out):
            return run_cli("eval", "--db-codes", str(tmp_path / "db.fhsh"),
                           "--db-labels", str(tmp_path / "db_labels.txt"),
                           "--query-codes", str(tmp_path / "q.fhsh"),
                           "--query-labels", str(tmp_path / "q_labels.txt"),
                           "--classes", "4", "--ks", "1,10,300", "--threads", threads,
                           "--out", str(tmp_path / out))

        for threads in ("1", "8"):
            assert query(threads, f"q{threads}") == 0
            assert evaluate(threads, f"e{threads}") == 0
        assert (tmp_path / "q1" / "results.csv").read_bytes() == \
            (tmp_path / "q8" / "results.csv").read_bytes()
        for name in ("map.csv", "prn.csv", "pr.csv"):
            assert (tmp_path / "e1" / name).read_bytes() == (tmp_path / "e8" / name).read_bytes()

        capsys.readouterr()
        assert query("0", "q0") == 2
        assert evaluate("0", "e0") == 2
        assert capsys.readouterr().err.count("--threads must be >= 1") == 2

    @pytest.mark.parametrize("command", ["encode", "index", "ablate", "curves"])
    def test_zero_threads_exits_2_on_every_command(self, tmp_path, capsys, command):
        # Each command line below succeeds with --threads 1.
        write_eval_fixture(tmp_path)
        save_checkpoint(init_state(EncoderSpec(input_dim=4, output_dim=2)), tmp_path / "enc.fhnn")
        write_features(tmp_path / "x.fhft", np.zeros((4, 3)))
        cfg_path = tmp_path / "cfg.json"
        cfg = write_train_config(cfg_path, epochs=1)
        cfg["ablate"] = {"seeds": [0], "variants": ["pair"]}
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        argv = {
            "encode": ["--checkpoint", str(tmp_path / "enc.fhnn"),
                       "--features", str(tmp_path / "x.fhft")],
            "index": ["--codes", str(tmp_path / "db.fhsh"),
                      "--labels", str(tmp_path / "db_labels.txt"), "--classes", "3"],
            "ablate": ["--config", str(cfg_path)],
            "curves": ["--points", "5"],
        }[command]
        assert run_cli(command, *argv, "--threads", "1", "--out", str(tmp_path / "ok")) == 0
        capsys.readouterr()
        assert run_cli(command, *argv, "--threads", "0", "--out", str(tmp_path / "o")) == 2
        assert "--threads must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestFlagsPerCommand:
    @pytest.mark.parametrize("flag", [["--config", "cfg.json"], ["--seed", "9"]],
                             ids=["config", "seed"])
    @pytest.mark.parametrize("command", ["encode", "index", "query", "eval", "curves"])
    def test_config_or_seed_where_not_read_exits_2(self, tmp_path, monkeypatch, capsys,
                                                   command, flag):
        # Only train reads --seed, and only train and ablate read --config.
        monkeypatch.chdir(tmp_path)
        write_eval_fixture(tmp_path)
        write_train_config(tmp_path / "cfg.json")
        save_checkpoint(init_state(EncoderSpec(input_dim=4, output_dim=2)), tmp_path / "enc.fhnn")
        write_features(tmp_path / "x.fhft", np.zeros((4, 3)))
        assert run_cli("index", "--codes", "db.fhsh", "--labels", "db_labels.txt",
                       "--classes", "3", "--out", "index") == 0
        argv = {
            "encode": ["--checkpoint", "enc.fhnn", "--features", "x.fhft"],
            "index": ["--codes", "db.fhsh", "--labels", "db_labels.txt", "--classes", "3"],
            "query": ["--index", "index", "--queries", "q.fhsh", "--k", "2"],
            "eval": ["--db-codes", "db.fhsh", "--db-labels", "db_labels.txt",
                     "--query-codes", "q.fhsh", "--query-labels", "q_labels.txt",
                     "--classes", "3", "--ks", "1,5"],
            "curves": ["--points", "5"],
        }[command]
        assert run_cli(command, *argv, "--out", "ok") == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            run_cli(command, *argv, *flag, "--out", "o")
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestClassesFlag:
    @pytest.mark.parametrize("classes", ["0", "-2"])
    @pytest.mark.parametrize("command", ["index", "eval"])
    def test_classes_below_one_exits_2(self, tmp_path, capsys, command, classes):
        # The label files are valid for --classes 3.
        write_eval_fixture(tmp_path)
        argv = {
            "index": ["--codes", str(tmp_path / "db.fhsh"),
                      "--labels", str(tmp_path / "db_labels.txt")],
            "eval": ["--db-codes", str(tmp_path / "db.fhsh"),
                     "--db-labels", str(tmp_path / "db_labels.txt"),
                     "--query-codes", str(tmp_path / "q.fhsh"),
                     "--query-labels", str(tmp_path / "q_labels.txt")],
        }[command]
        assert run_cli(command, *argv, "--classes", classes, "--out", str(tmp_path / "o")) == 2
        assert f"--classes must be >= 1, got {classes}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_classes_is_checked_before_any_file_is_read(self, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        assert run_cli("index", "--codes", missing, "--labels", missing,
                       "--classes", "0", "--out", str(tmp_path / "o")) == 2
        assert run_cli("eval", "--db-codes", missing, "--db-labels", missing,
                       "--query-codes", missing, "--query-labels", missing,
                       "--classes", "0", "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err.count("--classes must be >= 1") == 2


class TestEvalCommand:
    def test_fixture_metrics_match_goldens(self, tmp_path):
        write_eval_fixture(tmp_path)
        out = tmp_path / "metrics"
        assert run_cli("eval",
                       "--db-codes", str(tmp_path / "db.fhsh"),
                       "--db-labels", str(tmp_path / "db_labels.txt"),
                       "--query-codes", str(tmp_path / "q.fhsh"),
                       "--query-labels", str(tmp_path / "q_labels.txt"),
                       "--classes", "3", "--ks", "1,2,5",
                       "--out", str(out)) == 0
        import pathlib
        golden_dir = pathlib.Path(__file__).parent / "data"
        for name in ("map.csv", "prn.csv", "pr.csv"):
            assert (out / name).read_bytes() == (golden_dir / name).read_bytes(), name

    def test_self_query_map_is_one(self, tmp_path):
        signs = np.array([[1, -1], [1, 1], [-1, -1]])
        BinaryCodeMatrix.from_signs(signs).save(tmp_path / "codes.fhsh")
        write_labels(tmp_path / "labels.txt", [{0}, {1}])
        out = tmp_path / "m"
        assert run_cli("eval",
                       "--db-codes", str(tmp_path / "codes.fhsh"),
                       "--db-labels", str(tmp_path / "labels.txt"),
                       "--query-codes", str(tmp_path / "codes.fhsh"),
                       "--query-labels", str(tmp_path / "labels.txt"),
                       "--classes", "2", "--ks", "1", "--out", str(out)) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["map"]["1"] == 1.0

    def test_k_beyond_database_rejected(self, tmp_path, capsys):
        write_eval_fixture(tmp_path)
        code = run_cli("eval",
                       "--db-codes", str(tmp_path / "db.fhsh"),
                       "--db-labels", str(tmp_path / "db_labels.txt"),
                       "--query-codes", str(tmp_path / "q.fhsh"),
                       "--query-labels", str(tmp_path / "q_labels.txt"),
                       "--classes", "3", "--ks", "6",
                       "--out", str(tmp_path / "m"))
        assert code == 2
        assert "k must be" in capsys.readouterr().err

    @pytest.mark.parametrize("corrupt", ["non-utf8", "directory"])
    @pytest.mark.parametrize("target", ["db_labels.txt", "q_labels.txt"])
    def test_unreadable_label_file_exits_3(self, tmp_path, capsys, target, corrupt):
        write_eval_fixture(tmp_path)
        make_unreadable(tmp_path / target, corrupt)
        assert eval_into(tmp_path, tmp_path / "m") == 3
        err = capsys.readouterr().err
        assert err.startswith("error (data)") and target in err
        assert not (tmp_path / "m").exists()


class TestAblateCommand:
    def ablate_config(self, path, seeds, variants=None):
        cfg = {
            "dataset": {"synthetic": {
                "classes": 3, "per_class": 30, "dim": 8,
                "separation": 3.0, "seed": 100, "query_fraction": 0.2,
            }},
            "hyper": {
                "bits": 4, "epochs": 4, "batch_size": 16, "lr": 0.05,
                "mu": 2.0, "nu": 2.0, "eta": 0.2,
                "center_inner_lr": 0.02, "center_inner_steps": 30,
            },
            "encoder": {"hidden_layers": [[16, "relu"]], "seed": 0},
            "ablate": {"seeds": seeds},
        }
        if variants is not None:
            cfg["ablate"]["variants"] = variants
        path.write_text(json.dumps(cfg), encoding="utf-8")

    def test_runs_requested_variants_only(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        self.ablate_config(cfg_path, seeds=[0, 1], variants=["pair"])
        out = tmp_path / "ab"
        assert run_cli("ablate", "--config", str(cfg_path), "--out", str(out)) == 0
        rows = (out / "ablation.csv").read_text().splitlines()
        assert rows[0] == "variant,seed,map"
        assert len(rows) == 1 + 2
        assert all(r.startswith("pair,") for r in rows[1:])

    def test_duplicate_seeds_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        self.ablate_config(cfg_path, seeds=[3, 3])
        assert run_cli("ablate", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 2
        assert "duplicate" in capsys.readouterr().err

    def test_unknown_ablate_key_rejected(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        self.ablate_config(cfg_path, seeds=[0])
        cfg = json.loads(cfg_path.read_text())
        cfg["ablate"]["seed"] = 1
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert run_cli("ablate", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 2
        assert "unknown key(s) in ablate config: seed" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds, variants", [
        (["abc"], None),
        (5, None),
        ([1.5], None),
        ([True], None),
        ([0], "full"),
        ([0], ["full", "nope"]),
        ([0], ["pair", "pair"]),
    ], ids=["text-seed", "scalar-seeds", "fractional-seed", "bool-seed", "string-variants",
            "unknown-variant", "duplicate-variant"])
    def test_malformed_seeds_or_variants_exit_2(self, tmp_path, capsys, seeds, variants):
        cfg_path = tmp_path / "cfg.json"
        self.ablate_config(cfg_path, seeds=seeds, variants=variants)
        out = tmp_path / "o"
        assert run_cli("ablate", "--config", str(cfg_path), "--out", str(out)) == 2
        assert "error (config): ablate." in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg_path]

    def test_non_object_hyper_section_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        self.ablate_config(cfg_path, seeds=[0])
        cfg = json.loads(cfg_path.read_text())
        cfg["hyper"] = [4]
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert run_cli("ablate", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 2
        assert "config section 'hyper' must be an object" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda cfg: cfg.update(dataset=[1]), "config section 'dataset' must be an object"),
        (lambda cfg: cfg["dataset"].update(synthetic=[1]),
         "config section 'synthetic' must be an object"),
        (lambda cfg: cfg["dataset"]["synthetic"].update(seed=[1]), "bad synthetic dataset spec"),
    ], ids=["list-dataset", "list-synthetic", "list-synthetic-seed"])
    def test_malformed_dataset_section_exits_2(self, tmp_path, capsys, edit, message):
        # train exits 2 on each of these configs; ablate must too.
        cfg_path = tmp_path / "cfg.json"
        self.ablate_config(cfg_path, seeds=[0])
        cfg = json.loads(cfg_path.read_text())
        edit(cfg)
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert run_cli("ablate", "--config", str(cfg_path), "--out", str(tmp_path / "o")) == 2
        assert message in capsys.readouterr().err

    def test_full_table_shape(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        self.ablate_config(cfg_path, seeds=[0, 1])
        out = tmp_path / "ab"
        assert run_cli("ablate", "--config", str(cfg_path), "--out", str(out)) == 0
        rows = (out / "ablation.csv").read_text().splitlines()
        assert len(rows) == 1 + 3 * 2
        summary = json.loads((out / "summary.json").read_text())
        assert set(summary["medians"]) == {"pair", "pair+intra", "full"}


class TestCurvesCommand:
    def test_writes_expected_grid(self, tmp_path):
        out = tmp_path / "c"
        assert run_cli("curves", "--margins", "0,1,2", "--points", "41",
                       "--out", str(out)) == 0
        lines = (out / "curves.csv").read_text().splitlines()
        assert lines[0] == "D,m,loss_similar,loss_dissimilar"
        assert len(lines) == 1 + 3 * 41

    def test_negative_margin_rejected(self, tmp_path):
        assert run_cli("curves", "--margins", "-1", "--out", str(tmp_path / "c")) == 2

    @pytest.mark.parametrize("flags", [
        ["--points", "1"],
        ["--d-min", "5", "--d-max", "1"],
        ["--d-max", "nan"],
    ], ids=["one-point", "reversed-range", "nan-d-max"])
    def test_bad_range_exits_2_and_leaves_no_directory(self, tmp_path, capsys, flags):
        assert run_cli("curves", *flags, "--out", str(tmp_path / "c")) == 2
        assert "error (config)" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


def curves(out, *flags):
    return run_cli("curves", "--points", "5", "--out", str(out), *flags)


def eval_into(tmp_path, out, *flags):
    return run_cli("eval", "--db-codes", str(tmp_path / "db.fhsh"),
                   "--db-labels", str(tmp_path / "db_labels.txt"),
                   "--query-codes", str(tmp_path / "q.fhsh"),
                   "--query-labels", str(tmp_path / "q_labels.txt"),
                   "--classes", "3", "--ks", "1,2,5", "--out", str(out), *flags)


def snapshot(directory):
    return {p.name: p.read_bytes() for p in directory.iterdir()}


class TestOutputDirectory:
    @pytest.mark.parametrize("below", [False, True], ids=["file", "path-below-file"])
    def test_out_on_a_file_exits_2(self, tmp_path, capsys, below):
        afile = tmp_path / "afile"
        afile.write_text("keep")
        out = afile / "sub" if below else afile
        assert curves(out) == 2
        assert curves(out, "--force") == 2
        assert "error (config)" in capsys.readouterr().err
        assert afile.read_text() == "keep"
        assert list(tmp_path.iterdir()) == [afile]

    def test_stale_siblings_of_a_killed_run_are_cleared(self, tmp_path):
        out = tmp_path / "c"
        for stale in (".c.partial", ".c.old"):
            (tmp_path / stale).mkdir()
            (tmp_path / stale / "junk").write_text("x")
        out.mkdir()
        (out / "old.txt").write_text("old")
        assert curves(out, "--force") == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c"]
        assert sorted(snapshot(out)) == ["curves.csv", "meta.json"]

    def test_result_moved_aside_by_a_killed_swap_is_put_back(self, tmp_path):
        old = tmp_path / ".c.old"
        old.mkdir()
        (old / "curves.csv").write_text("last good")
        assert curves(tmp_path / "c") == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c"]
        assert (tmp_path / "c" / "curves.csv").read_text() == "last good"

    def test_output_directory_has_plain_mkdir_mode(self, tmp_path):
        (tmp_path / "plain").mkdir()
        assert curves(tmp_path / "c") == 0
        assert (tmp_path / "c").stat().st_mode == (tmp_path / "plain").stat().st_mode


def disk_full(*args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def fail_after_csv(report, path):
    assert (path.parent / "map.csv").exists()  # write_metrics_csv ran first
    disk_full()


class TestCrashSafety:
    """A failure after the first artifact write leaves --out as it was."""

    @staticmethod
    def fails_leaving_out_as_it_was(tmp_path, out, run):
        names = sorted(p.name for p in tmp_path.iterdir())  # no .NAME.partial/.NAME.old after
        before = snapshot(out) if out.exists() else None
        with pytest.raises(OSError, match="No space"):
            run()
        assert sorted(p.name for p in tmp_path.iterdir()) == names
        assert (snapshot(out) if out.exists() else None) == before

    @pytest.mark.parametrize("forced", [False, True], ids=["fresh", "force"])
    def test_eval_failure_after_metrics_csv(self, tmp_path, monkeypatch, forced):
        write_eval_fixture(tmp_path)
        out = tmp_path / "m"
        if forced:
            assert eval_into(tmp_path, out) == 0
        monkeypatch.setattr("fisherhash.cli.write_metrics_json", fail_after_csv)
        self.fails_leaving_out_as_it_was(
            tmp_path, out, lambda: eval_into(tmp_path, out, "--ks", "1", "--force"))

    @pytest.mark.parametrize("command", ["eval", "query"])
    def test_failure_mid_stream_leaves_the_previous_result(self, tmp_path, monkeypatch, command):
        write_eval_fixture(tmp_path)
        assert run_cli("index", "--codes", str(tmp_path / "db.fhsh"),
                       "--labels", str(tmp_path / "db_labels.txt"),
                       "--classes", "3", "--out", str(tmp_path / "index")) == 0
        out = tmp_path / "out"

        def run():
            if command == "eval":
                return eval_into(tmp_path, out, "--force")
            return run_cli("query", "--index", str(tmp_path / "index"),
                           "--queries", str(tmp_path / "q.fhsh"),
                           "--k", "5", "--out", str(out), "--force")

        assert run() == 0
        format_rows = evaluation.format_rows

        def first_chunk_then_disk_full(*args, **kwargs):
            yield next(format_rows(*args, **kwargs))
            disk_full()

        for module in ("fisherhash.evaluation", "fisherhash.cli"):
            monkeypatch.setattr(f"{module}.format_rows", first_chunk_then_disk_full)
        self.fails_leaving_out_as_it_was(tmp_path, out, run)

    @pytest.mark.parametrize("forced", [False, True], ids=["fresh", "force"])
    def test_train_failure_after_checkpoint_and_codes(self, tmp_path, monkeypatch, forced):
        cfg_path = tmp_path / "cfg.json"
        write_train_config(cfg_path, epochs=1)
        out = tmp_path / "run"
        if forced:
            assert run_cli("train", "--config", str(cfg_path), "--out", str(out)) == 0
        monkeypatch.setattr("fisherhash.training.write_json", disk_full)
        self.fails_leaving_out_as_it_was(tmp_path, out, lambda: run_cli(
            "train", "--config", str(cfg_path), "--out", str(out), "--seed", "8", "--force"))


def mutate(data: bytes, kind: str, rng) -> bytes:
    """data cut short, with one byte overwritten, or with one byte inserted."""
    if kind == "cut":
        return data[:rng.integers(0, len(data))]
    at = int(rng.integers(0, len(data) + (kind == "insert")))
    byte = bytes([int(rng.integers(0, 256))])
    return data[:at] + byte + data[at + (kind == "overwrite"):]


class TestFuzzedInputs:
    """Every input file of a command, damaged: a documented exit code, never a crash."""

    INPUTS = {
        "encode": ["enc.fhnn", "x.fhft"],
        "index": ["db.fhsh", "db_labels.txt"],
        "query": ["index/index.json", "index/codes.fhsh", "index/labels.txt", "q.fhsh"],
        "eval": ["db.fhsh", "db_labels.txt", "q.fhsh", "q_labels.txt"],
        "train": ["manifest.json", "data.fhft", "data_labels.txt", "cfg.json"],
        "ablate": ["manifest.json", "data.fhft", "data_labels.txt", "cfg.json"],
    }
    ARGV = {
        "encode": ["--checkpoint", "enc.fhnn", "--features", "x.fhft"],
        "index": ["--codes", "db.fhsh", "--labels", "db_labels.txt", "--classes", "3"],
        "query": ["--index", "index", "--queries", "q.fhsh", "--k", "2"],
        "eval": ["--db-codes", "db.fhsh", "--db-labels", "db_labels.txt", "--query-codes",
                 "q.fhsh", "--query-labels", "q_labels.txt", "--classes", "3", "--ks", "1,5"],
        "train": ["--config", "cfg.json"],
        "ablate": ["--config", "cfg.json"],
    }

    @staticmethod
    def write_training_inputs(tmp_path):
        """A manifest dataset of 2 classes x 8 items in dim 3, and a config
        that trains it at 2 bits for 1 epoch and ablates one seed and one
        variant.  The config's numbers are single digits, so a damaged
        config still trains in milliseconds."""
        labels = np.repeat([0, 1], 8)
        features = np.random.default_rng(0).normal(size=(3, 16)) + 3 * labels
        write_features(tmp_path / "data.fhft", features)
        write_labels(tmp_path / "data_labels.txt", [{int(c)} for c in labels])
        save_manifest(DatasetManifest(
            name="d", feature_path="data.fhft", label_path="data_labels.txt", input_dim=3,
            n_items=16, num_classes=2, splits={"train": [*range(6), *range(8, 14)],
                                               "query": [6, 7, 14, 15]},
        ), tmp_path / "manifest.json")
        (tmp_path / "cfg.json").write_text(json.dumps({
            "dataset": {"manifest": "manifest.json"},
            "hyper": {"bits": 2, "epochs": 1, "batch_size": 8, "center_inner_steps": 2,
                      "center_rounds": 1},
            "encoder": {"hidden_layers": [[4, "relu"]]},
            "ablate": {"seeds": [0], "variants": ["full"]},
        }), encoding="utf-8")

    @pytest.mark.parametrize("command", list(INPUTS))
    def test_damaged_inputs_exit_0_2_3_or_4(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        write_eval_fixture(tmp_path)
        rng = np.random.default_rng(2024)
        save_checkpoint(init_state(EncoderSpec(input_dim=4, output_dim=2,
                                               hidden_layers=((3, "relu"),))), tmp_path / "enc.fhnn")
        write_features(tmp_path / "x.fhft", rng.normal(size=(4, 3)))
        assert run_cli("index", "--codes", "db.fhsh", "--labels", "db_labels.txt",
                       "--classes", "3", "--out", "index") == 0
        self.write_training_inputs(tmp_path)
        assert run_cli(command, *self.ARGV[command], "--out", "o") == 0
        shutil.rmtree(tmp_path / "o")
        codes = set()
        for name in self.INPUTS[command]:
            path = tmp_path / name
            intact = path.read_bytes()
            for kind in ("cut", "overwrite", "insert"):
                for _ in range(16):
                    path.write_bytes(mutate(intact, kind, rng))
                    capsys.readouterr()
                    code = run_cli(command, *self.ARGV[command], "--out", "o")
                    err = capsys.readouterr().err
                    assert code in (0, 2, 3, 4), (name, kind, err)
                    assert "Traceback" not in err
                    codes.add(code)
                    if code:
                        assert not (tmp_path / "o").exists(), (name, kind, err)
                    shutil.rmtree(tmp_path / "o", ignore_errors=True)
                    assert not [p for p in tmp_path.iterdir() if p.name.startswith(".")]
            path.write_bytes(intact)
        assert 3 in codes
