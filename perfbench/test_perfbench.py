"""Tests of the benchmark itself: inputs, tracer and checks.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
from tracer import Span, Tracer, layer_totals  # noqa: E402

from fisherhash.binary_codes import BinaryCodeMatrix  # noqa: E402
from fisherhash.evaluation import metrics_report, search  # noqa: E402


def _tree_bytes(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("write, seeded", [
    (gen.write_train_inputs, ["features.fhft", "train.json"]),
    (gen.write_retrieval_inputs, ["queries.fhsh", "query_labels.txt", "db.fhsh", "db_labels.txt"]),
])
def test_inputs_repeat_for_a_seed_and_differ_across_seeds(tmp_path, write, seeded):
    write(5, tmp_path / "a")
    write(5, tmp_path / "b")
    write(6, tmp_path / "c")
    a, b, c = (_tree_bytes(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys()
    assert all(a[name] != c[name] for name in seeded)


def test_request_order_repeats_for_a_seed():
    assert np.array_equal(gen.request_order(3, 500), gen.request_order(3, 500))
    assert not np.array_equal(gen.request_order(3, 500), gen.request_order(4, 500))


def test_self_time_of_a_toy_call_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (parallel threads,
    # overlapping) and c [8, 12] (clipped at root's end); a has child d [2, 3].
    spans = [
        Span(0, None, 0, "root", 0.0, 10.0),
        Span(1, 0, 0, "a", 1.0, 4.0),
        Span(2, 0, 0, "b", 3.0, 6.0),
        Span(3, 0, 0, "c", 8.0, 12.0),
        Span(4, 1, 0, "d", 2.0, 3.0),
        Span(5, None, 1, "a", 20.0, 21.0),
    ]
    totals = layer_totals(spans)
    assert totals["root"] == (10.0, 10.0 - 5.0 - 2.0, 1)
    assert totals["a"] == (3.0 + 1.0, 2.0 + 1.0, 2)
    assert totals["b"] == (3.0, 3.0, 1)
    assert totals["d"] == (1.0, 1.0, 1)


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def _toy_module(monkeypatch):
    mod = types.ModuleType("toy_layers")

    def leaf(n):
        return list(range(n))

    def outer(n):
        return mod.leaf(n) + mod.Box.build(n)

    class Box:
        @classmethod
        def build(cls, n):
            return [n]

    mod.leaf, mod.outer, mod.Box = leaf, outer, Box
    monkeypatch.setitem(sys.modules, "toy_layers", mod)
    return mod


def test_tracer_records_spans_and_restores_originals(monkeypatch):
    mod = _toy_module(monkeypatch)
    originals = (mod.leaf, mod.outer, vars(mod.Box)["build"])
    tracer = Tracer(clock=_Clock())
    tracer.install([
        ("toy_layers", "outer", "toy.outer", None),
        ("toy_layers", "leaf", "toy.leaf", lambda r: ("toy.items", len(r))),
        ("toy_layers", "Box.build", "toy.Box.build", None),
        ("toy_layers", "gone", "toy.gone", None),
    ])
    assert tracer.missing == {"toy_layers.gone"}
    try:
        assert mod.outer(3) == [0, 1, 2, 3]  # outside an operation: not recorded
        tracer.op = 7
        assert mod.outer(2) == [0, 1, 2]
    finally:
        tracer.restore()
    assert (mod.leaf, mod.outer, vars(mod.Box)["build"]) == originals
    assert isinstance(vars(mod.Box)["build"], classmethod)
    by_name = {s.name: s for s in tracer.spans}
    assert set(by_name) == {"toy.outer", "toy.leaf", "toy.Box.build"}
    assert all(s.op == 7 for s in tracer.spans)
    assert by_name["toy.leaf"].parent == by_name["toy.outer"].id
    assert by_name["toy.Box.build"].parent == by_name["toy.outer"].id
    assert tracer.counts == {"toy.items": 2}
    # The fake clock ticks once per reading: outer lasts 5 ticks and each
    # child 1, so outer's self time is 3.
    assert layer_totals(tracer.spans)["toy.outer"] == (5.0, 3.0, 1)


def _small_codes(seed=0, n_q=30, n_db=400, bits=16, classes=4):
    rng = np.random.default_rng(seed)
    centers = rng.choice(np.array([-1, 1], dtype=np.int8), size=(classes, bits))

    def draw(n):
        labels = rng.integers(0, classes, size=n)
        flips = rng.random((n, bits)) < 0.3
        return np.where(flips, -centers[labels], centers[labels]).astype(np.int8), labels

    return (*draw(n_q), *draw(n_db))


def test_reference_agrees_with_fisherhash():
    q, ql, db, dbl = _small_codes()
    top_idx, top_dist, maps = oracle.reference(q, ql, db, dbl, 10, [10, db.shape[0]])
    found = search(BinaryCodeMatrix.from_signs(q.T), BinaryCodeMatrix.from_signs(db.T), k=10)
    assert np.array_equal(np.stack([r.indices for r in found]), top_idx)
    assert np.array_equal(np.stack([r.distances for r in found]), top_dist)
    report = metrics_report(
        BinaryCodeMatrix.from_signs(q.T), BinaryCodeMatrix.from_signs(db.T),
        [{int(c)} for c in ql], [{int(c)} for c in dbl], ks=[10, db.shape[0]])
    assert oracle.check_maps(report.map_at, maps)


def _write_results(path, idx, dist):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("query,rank,item,distance\n")
        for q in range(idx.shape[0]):
            for r in range(idx.shape[1]):
                fh.write(f"{q},{r + 1},{idx[q, r]},{dist[q, r]}\n")


def test_a_wrong_ranking_is_rejected(tmp_path):
    q, ql, db, dbl = _small_codes()
    top_idx, top_dist, _ = oracle.reference(q, ql, db, dbl, 10, [10])
    path = tmp_path / "results.csv"

    def accepted(idx, dist):
        _write_results(path, idx, dist)
        return oracle.check_results(oracle.read_results_csv(path), top_idx, top_dist)

    assert accepted(top_idx, top_dist)
    swapped = top_idx.copy()
    swapped[3, [0, 1]] = swapped[3, [1, 0]]
    assert not accepted(swapped, top_dist)
    assert not accepted(top_idx[:-1], top_dist[:-1])


def test_map_of_returned_lists_equals_map_at_k_of_the_full_ranking():
    q, ql, db, dbl = _small_codes()
    top_idx, _, maps = oracle.reference(q, ql, db, dbl, 10, [10])
    assert abs(oracle.returned_map(top_idx, ql, dbl) - maps[10]) < 1e-12
    assert oracle.returned_map(top_idx[:, ::-1], ql, dbl) != maps[10]


def test_every_trace_target_resolves():
    import worker

    tracer = Tracer()
    tracer.install(worker.TRACE_TARGETS)
    try:
        assert tracer.missing == set()
        assert len(tracer._patches) == len(worker.TRACE_TARGETS)
    finally:
        tracer.restore()


def test_a_wrong_map_is_rejected(tmp_path):
    expected = {100: 0.9057974765893204, 50000: 0.6780298270722386}
    path = tmp_path / "map.csv"
    path.write_text("k,map\n100,0.90579747658932044\n50000,0.67802982707223862\n")
    assert oracle.check_maps(oracle.read_map_csv(path), expected)
    path.write_text("k,map\n100,0.9057984765893204\n50000,0.67802982707223862\n")
    assert not oracle.check_maps(oracle.read_map_csv(path), expected)
    assert not oracle.check_maps({100: expected[100]}, expected)


def test_a_non_finite_train_report_is_rejected(tmp_path):
    path = tmp_path / "report.json"
    record = {"epoch": 0, "pair_loss": 1.0, "total": 2.0}
    path.write_text(json.dumps({"epochs": [record]}))
    assert oracle.check_train_report(path)
    path.write_text(json.dumps({"epochs": [record, {**record, "total": float("nan")}]}))
    assert not oracle.check_train_report(path)
    path.write_text(json.dumps({"epochs": []}))
    assert not oracle.check_train_report(path)


def test_a_wrong_online_response_is_rejected():
    import worker
    from fisherhash.evaluation import RankedResult

    q, ql, db, dbl = _small_codes()
    top_idx, top_dist, _ = oracle.reference(q, ql, db, dbl, 10, [10])
    online = worker.OnlineSearch.__new__(worker.OnlineSearch)
    online.top_idx, online.top_dist = top_idx, top_dist
    online.q_labels, online.db_labels = ql, dbl
    found = search(BinaryCodeMatrix.from_signs(q[4:5].T), BinaryCodeMatrix.from_signs(db.T), k=10)
    assert online.check((4, found)) == (True, oracle.returned_map(top_idx[4:5], ql[4:5], dbl))
    wrong = RankedResult(0, found[0].indices[::-1], found[0].distances[::-1])
    assert online.check((4, [wrong]))[0] is False
    assert online.check((5, found))[0] is False


def test_benchmark_json_lists_the_metrics_a_run_prints():
    import run
    import worker

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    result = {"setup_s": [0.2, 0.1, 0.3], "op_s": [1.0, 2.0], "quality": [0.9],
              "peak_rss_mb": 100.0}
    e2e = run.end_to_end(result)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
        (name, unit) for name, (_, unit) in e2e.items()]
    assert e2e["setup_s"][0] == 0.2 and e2e["op_p50_ms"][0] == 1500.0
    assert run.percentile([3.0, 1.0, 2.0], 50) == 2.0 and run.percentile([1.0, 2.0], 99) == 2.0
    results = [{"op_s": [1.0], "traced": [False]},
               {"op_s": [1.1], "traced": [True], "layers": {"cli.eval": [1.0, 0.5, 1]},
                "counts": {"pairwise.pairs_built": 6}}]
    layers = run.layer_metrics(results)
    assert layers["cli.eval.self_s"][0] == 0.5 and layers["pairwise.pairs_built"][0] == 6
    assert abs(layers["trace.overhead_ms"][0] - 100.0) < 1e-9
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, (_, unit) in layers.items()]
    assert [w["name"] for w in bench["workloads"]] == list(worker.WORKLOADS)
