"""Acceptance suite: one test per release criterion.

Each test prints a single PASS/FAIL line (run with -s to see them all
on success).  Tolerances and runtime budgets are asserted inline.
"""

import contextlib
import copy
import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from fisherhash.binary_codes import BinaryCodeMatrix, hamming_distance, pack
from fisherhash.centers import center_gradient, sign_plus, target_matrix, update_codes
from fisherhash.cli import main as cli_main
from fisherhash.datasets import make_synthetic
from fisherhash.encoder import EncoderSpec, backward, forward, init_state
from fisherhash.evaluation import metrics_report, search
from fisherhash.pairwise import MarginParams, PairSets, pair_gradient, pair_objective
from fisherhash.training import HyperParams, train

from oracles import brute_force_codes
from test_evaluation import (
    DB_LABELS,
    DB_SIGNS,
    EXPECTED_MAP,
    EXPECTED_P_AT_N,
    EXPECTED_PR_PRECISION,
    EXPECTED_PR_RECALL,
    EXPECTED_R_AT_N,
    Q_LABELS,
    Q_SIGNS,
)


@contextlib.contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"CRITERION {num:2d} FAIL: {description}")
        raise
    print(f"CRITERION {num:2d} PASS: {description}")


def one_hot(labels, m):
    y = np.zeros((m, len(labels)))
    y[labels, np.arange(len(labels))] = 1.0
    return y


def test_criterion_01_closed_form_code_update():
    with criterion(1, "closed-form code update equals exhaustive minimizer"):
        rng = np.random.default_rng(101)
        t0 = time.perf_counter()
        for trial in range(200):
            k = int(rng.integers(2, 13))
            m = int(rng.integers(1, 5))
            n = int(rng.integers(1, 5))
            u = rng.normal(size=(k, n)) * rng.uniform(0.5, 3.0)
            c_signs = rng.choice([-1.0, 1.0], size=(k, m))
            y = one_hot(rng.integers(0, m, size=n), m)
            mu = float(rng.uniform(0.0, 3.0))
            if trial % 4 == 0:
                # force exact zero coordinates of mu*C*y + u to exercise
                # the shared sgn(0) = +1 tie-break
                mu = float(rng.integers(1, 4))
                cy = c_signs @ y
                zero_rows = rng.integers(0, k, size=max(1, k // 3))
                for r in zero_rows:
                    u[r] = -mu * cy[r]
            got = update_codes(u, BinaryCodeMatrix.from_signs(c_signs), y, mu)
            want = brute_force_codes(u, c_signs, y, mu)
            assert np.array_equal(got.dense(np.float64), want), f"trial {trial}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_02_pairwise_gradient():
    with criterion(2, "analytic pairwise gradient matches finite differences"):
        rng = np.random.default_rng(202)
        t0 = time.perf_counter()
        n, k = 16, 8
        worst = 0.0
        for _ in range(50):
            u = rng.normal(size=(k, n))
            signs = rng.choice([-1, 1], size=(k, n))
            b = BinaryCodeMatrix.from_signs(signs)
            idx = [(i, j) for i in range(n) for j in range(i + 1, n)]
            rng.shuffle(idx)
            half = len(idx) // 2
            pairs = PairSets(np.array(idx[:half]), np.array(idx[half:]))
            params = MarginParams(m=float(rng.uniform(0, 2)), psi=float(rng.uniform(0, 2)))
            analytic = pair_gradient(u, b, pairs, params)
            step = 1e-5
            numeric = np.zeros_like(u)
            for r in range(k):
                for i in range(n):
                    up, dn = u.copy(), u.copy()
                    up[r, i] += step
                    dn[r, i] -= step
                    numeric[r, i] = (
                        pair_objective(up, b, pairs, params)
                        - pair_objective(dn, b, pairs, params)
                    ) / (2 * step)
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1.0)
            worst = max(worst, float(rel.max()))
        assert worst < 1e-4, f"max relative error {worst:.2e}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_03_center_gradient():
    with criterion(3, "relaxed-center gradient matches frozen-sign finite differences"):
        rng = np.random.default_rng(303)
        k, m, n = 8, 5, 24
        worst = 0.0
        for _ in range(50):
            v = rng.normal(size=(k, m))
            b = rng.choice([-1.0, 1.0], size=(k, n))
            y = one_hot(rng.integers(0, m, size=n), m)
            a = target_matrix(k, m)
            mu, nu, eta = (float(x) for x in rng.uniform(0.05, 2.0, size=3))
            frozen = sign_plus(v)

            def l2(vv):
                return (
                    mu * ((b - vv @ y) ** 2).sum()
                    + nu * ((vv.T @ vv - a) ** 2).sum()
                    + eta * ((frozen - vv) ** 2).sum()
                )

            analytic = center_gradient(v, b, y, a, mu, nu, eta)
            numeric = np.zeros_like(v)
            step = 1e-6
            for r in range(k):
                for c in range(m):
                    up, dn = v.copy(), v.copy()
                    up[r, c] += step
                    dn[r, c] -= step
                    numeric[r, c] = (l2(up) - l2(dn)) / (2 * step)
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1.0)
            worst = max(worst, float(rel.max()))
        assert worst < 1e-4, f"max relative error {worst:.2e}"


def test_criterion_04_encoder_backprop():
    with criterion(4, "encoder parameter gradients match finite differences"):
        rng = np.random.default_rng(404)
        architectures = [
            (),
            ((32, "relu"),),
            ((24, "tanh"), (16, "relu")),
            ((32, "relu"), (24, "tanh"), (16, "identity")),
        ]
        for depth, hidden in enumerate(architectures):
            spec = EncoderSpec(input_dim=12, output_dim=6, hidden_layers=hidden, seed=depth)
            state = init_state(spec)
            x = rng.normal(size=(12, 7))
            u, cache = forward(state, x)
            (wg, bg), _ = backward(state, cache, u)  # probe loss 0.5||U||^2

            def probe(st):
                uu, _ = forward(st, x)
                return 0.5 * float((uu**2).sum())

            step = 1e-6
            for li in range(len(state.weights)):
                for arr, grad in ((state.weights[li], wg[li]), (state.biases[li], bg[li])):
                    it = np.ndindex(*arr.shape)
                    for pos in it:
                        up, dn = copy.deepcopy(state), copy.deepcopy(state)
                        tgt_up = up.weights[li] if arr is state.weights[li] else up.biases[li]
                        tgt_dn = dn.weights[li] if arr is state.weights[li] else dn.biases[li]
                        tgt_up[pos] += step
                        tgt_dn[pos] -= step
                        num = (probe(up) - probe(dn)) / (2 * step)
                        rel = abs(grad[pos] - num) / max(abs(num), 1.0)
                        assert rel < 1e-4, f"depth {depth} layer {li} at {pos}: {rel:.2e}"


def test_criterion_05_two_class_vertex_separation():
    with criterion(5, "two-class run maps classes to antipodal vertices with MAP 1.0"):
        t0 = time.perf_counter()
        ds = make_synthetic(2, 100, 4, 4.0, seed=3, query_fraction=0.0)
        spec = EncoderSpec(input_dim=4, output_dim=2, hidden_layers=((16, "relu"),), seed=3)
        hp = HyperParams(
            bits=2, epochs=20, batch_size=32, lr=0.05, seed=3,
            phi=1.0, mu=4.0, nu=8.0, eta=0.2, margin=1.0,
            center_inner_lr=0.02, center_inner_steps=80, center_rounds=3,
        )
        report = train(ds, hp, spec)
        assert report.train_map >= 0.99, f"training MAP {report.train_map:.4f}"

        # recover the final training codes deterministically
        import tempfile
        with tempfile.TemporaryDirectory() as td:
            train(ds, hp, spec, out_dir=td)
            codes = BinaryCodeMatrix.load(Path(td) / "codes.fhsh")
        dense = codes.dense(np.float64)
        labels = np.array([0 if 0 in s else 1 for s in ds.label_sets])
        majority = [
            sign_plus(dense[:, labels == c].mean(axis=1)) for c in (0, 1)
        ]
        assert not np.array_equal(majority[0], majority[1]), "classes share a vertex"
        ham = hamming_distance(
            BinaryCodeMatrix.from_signs(majority[0]),
            BinaryCodeMatrix.from_signs(majority[1]),
        )
        assert ham == 2, f"majority codes differ in {ham} bits, expected 2"
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_06_ablation_direction(tmp_path):
    with criterion(6, "ablation medians order full >= +intra >= pair-only"):
        t0 = time.perf_counter()
        cfg = {
            "dataset": {"synthetic": {
                "classes": 10, "per_class": 500, "dim": 32,
                "separation": 3.0, "seed": 1000, "query_fraction": 0.1,
            }},
            "hyper": {
                "bits": 12, "epochs": 20, "batch_size": 64, "lr": 0.05,
                "phi": 2.0, "mu": 1.0, "nu": 1.0, "eta": 0.2, "margin": 1.0,
                "center_inner_lr": 0.05, "center_inner_steps": 30,
                "center_rounds": 3,
            },
            "encoder": {"hidden_layers": [[64, "relu"]]},
            "ablate": {"seeds": [0, 1, 2, 3, 4]},
        }
        cfg_path = tmp_path / "ablate.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out = tmp_path / "ablation"
        assert cli_main(["ablate", "--config", str(cfg_path), "--out", str(out)]) == 0

        rows = (out / "ablation.csv").read_text().splitlines()[1:]
        assert len(rows) == 15, f"expected 15 result rows, got {len(rows)}"
        medians = json.loads((out / "summary.json").read_text())["medians"]
        full, intra, pair = medians["full"], medians["pair+intra"], medians["pair"]
        print(f"  medians: pair={pair:.4f}  +intra={intra:.4f}  full={full:.4f}")
        assert full >= intra >= pair, f"ordering violated: {medians}"
        assert full - pair >= 0.01, f"gap {full - pair:.4f} below 0.01"
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0, f"took {elapsed:.1f}s"


def test_criterion_07_loss_curves(tmp_path):
    with criterion(7, "loss curves: exact symmetry and strict margin dominance"):
        out = tmp_path / "curves"
        assert cli_main(["curves", "--margins", "0,1,2", "--out", str(out)]) == 0
        rows = {}
        lines = (out / "curves.csv").read_text().splitlines()
        assert lines[0] == "D,m,loss_similar,loss_dissimilar"
        for line in lines[1:]:
            d, m, ls, ld = line.split(",")
            rows[(float(d), float(m))] = (float(ls), float(ld))
        ds = sorted({d for d, _ in rows})
        ms = sorted({m for _, m in rows})
        assert ms == [0.0, 1.0, 2.0]
        for d in ds:
            for m in ms:
                ls, ld = rows[(d, m)]
                assert (-d, m) in rows, f"-{d} missing from grid"
                assert ls == rows[(-d, m)][1], f"symmetry broken at D={d}, m={m}"
            for lo, hi in ((0.0, 1.0), (1.0, 2.0)):
                assert rows[(d, hi)][0] > rows[(d, lo)][0], f"L^S not increasing in m at D={d}"
                assert rows[(d, hi)][1] > rows[(d, lo)][1], f"L^D not increasing in m at D={d}"


def test_criterion_08_metric_oracles():
    with criterion(8, "metrics match hand fixture; packed search equals brute force"):
        q = BinaryCodeMatrix.from_signs(Q_SIGNS)
        db = BinaryCodeMatrix.from_signs(DB_SIGNS)
        report = metrics_report(q, db, Q_LABELS, DB_LABELS, ks=[1, 2, 5], num_classes=3)
        for k, want in EXPECTED_MAP.items():
            assert abs(report.map_at[k] - want) < 1e-9
        np.testing.assert_allclose(report.top_n[:, 1], EXPECTED_P_AT_N, atol=1e-9)
        np.testing.assert_allclose(report.top_n[:, 2], EXPECTED_R_AT_N, atol=1e-9)
        np.testing.assert_allclose(report.pr_radius[:, 1], EXPECTED_PR_PRECISION, atol=1e-9)
        np.testing.assert_allclose(report.pr_radius[:, 2], EXPECTED_PR_RECALL, atol=1e-9)

        rng = np.random.default_rng(808)
        k_bits, n_db = 37, 500
        for _ in range(100):
            db_signs = rng.choice([-1, 1], size=(k_bits, n_db))
            q_signs = rng.choice([-1, 1], size=(k_bits, 1))
            res = search(
                BinaryCodeMatrix.from_signs(q_signs),
                BinaryCodeMatrix.from_signs(db_signs),
                k=n_db,
            )[0]
            dists = (db_signs != q_signs).sum(axis=0)
            order = np.argsort(dists, kind="stable")
            assert np.array_equal(res.indices, order)
            assert np.array_equal(res.distances, dists[order])


def test_criterion_09_hamming_identities():
    with criterion(9, "Hamming distance identities hold exactly"):
        rng = np.random.default_rng(909)
        for k in (1, 12, 64, 100):
            for _ in range(1000):
                a = rng.choice([-1, 1], size=k)
                b = rng.choice([-1, 1], size=k)
                d = hamming_distance(pack(a.astype(float)), pack(b.astype(float)))
                assert 2 * d == k - int(a @ b)
                assert 4 * d == int(((a - b) ** 2).sum())


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "identical configs yield bit-identical artifacts at 1 and 8 threads"):
        cfg = {
            "dataset": {"synthetic": {
                "classes": 2, "per_class": 30, "dim": 4,
                "separation": 4.0, "seed": 12, "query_fraction": 0.2,
            }},
            "hyper": {
                "bits": 2, "epochs": 4, "batch_size": 16, "lr": 0.05, "seed": 6,
                "mu": 4.0, "nu": 8.0, "eta": 0.2,
                "center_inner_lr": 0.02, "center_inner_steps": 40,
            },
            "encoder": {"hidden_layers": [[8, "relu"]]},
        }
        cfg_path = tmp_path / "train.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        compared = (
            "encoder.fhnn", "codes.fhsh", "centers.fhsh", "centers.v.f64",
            "report.json", "report.csv", "meta.json",
        )
        digests = []
        for run, threads in (("t1a", "1"), ("t1b", "1"), ("t8a", "8"), ("t8b", "8")):
            out = tmp_path / run
            rc = cli_main([
                "train", "--config", str(cfg_path), "--out", str(out),
                "--threads", threads,
            ])
            assert rc == 0
            blob = b"".join((out / name).read_bytes() for name in compared)
            digests.append(hashlib.sha256(blob).hexdigest())
        assert len(set(digests)) == 1, f"artifact digests differ: {digests}"
