"""The benchmark's per-layer rows read what the commands it times call.

perfbench/worker.py traces the names in TRACE_TARGETS from outside.  A
name that still resolves but is no longer called passes both test
suites while its layer silently reads 0, so this runs the benchmark's
commands in-process under that tracer and asks every layer for a span.
"""

import importlib
import json
from pathlib import Path

import numpy as np

from fisherhash import evaluation
from fisherhash.binary_codes import BinaryCodeMatrix
from fisherhash.cli import main
from fisherhash.datasets import DatasetManifest, save_manifest, write_features, write_labels

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# Nothing in src/ calls it; it goes with the benchmark's next revision.
UNCALLED = {"pairwise.PairSets.all_pairs_from_label_sets"}


def write_inputs(root: Path) -> Path:
    """A 60-item, 3-class manifest set and a 2-epoch train config; returns the config."""
    rng = np.random.default_rng(0)
    labels = np.repeat(np.arange(3), 20)
    write_features(root / "features.fhft", 4.0 * rng.normal(size=(4, 3))[:, labels]
                   + rng.normal(size=(4, 60)))
    write_labels(root / "labels.txt", [{int(c)} for c in labels])
    save_manifest(DatasetManifest(
        name="tiny", feature_path="features.fhft", label_path="labels.txt",
        input_dim=4, n_items=60, num_classes=3, splits={"train": np.arange(60)},
    ), root / "manifest.json")
    config = {
        "dataset": {"manifest": "manifest.json"},
        "hyper": {"bits": 8, "epochs": 2, "batch_size": 16, "lr": 0.05, "phi": 2.0},
        "encoder": {"hidden_layers": [[8, "relu"]]},
    }
    (root / "train.json").write_text(json.dumps(config), encoding="utf-8")
    return root / "train.json"


def test_every_traced_layer_but_the_known_dead_one_is_called(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    worker = importlib.import_module("worker")
    tracer = importlib.import_module("tracer").Tracer()
    config = write_inputs(tmp_path)
    run, labels = tmp_path / "run", str(tmp_path / "labels.txt")
    codes = str(run / "codes.fhsh")
    tracer.install(worker.TRACE_TARGETS)
    tracer.op = 0
    try:
        assert main(["train", "--config", str(config), "--out", str(run)]) == 0
        assert main(["index", "--codes", codes, "--labels", labels, "--classes", "3",
                     "--out", str(tmp_path / "index")]) == 0
        assert main(["eval", "--db-codes", codes, "--db-labels", labels, "--query-codes", codes,
                     "--query-labels", labels, "--classes", "3", "--ks", "5",
                     "--out", str(tmp_path / "eval")]) == 0
        assert main(["query", "--index", str(tmp_path / "index"), "--queries", codes,
                     "--k", "5", "--out", str(tmp_path / "query")]) == 0
        db = BinaryCodeMatrix.load(codes)
        assert len(evaluation.search(db.column(0), db, k=5)) == 1
    finally:
        tracer.op = None
        tracer.restore()
    assert not tracer.missing
    layers = {name for _, _, name, _ in worker.TRACE_TARGETS}
    assert layers - {s.name for s in tracer.spans} <= UNCALLED
