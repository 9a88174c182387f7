"""Timed part of one benchmark run: one worker process.

run.py prepares inputs and references, then starts this script with a
spec file, once per operation for the CLI workloads (each `fisherhash`
command is a process of its own) and once for the whole run of
search-online (a serving process).  The process does nothing but the
workload's operations and their checks, so its peak RSS is the
workload's.  It writes per-operation times, failures and, when traced,
per-layer totals to the result file named in the spec, and appends its
spans to the spans file.

    python3 perfbench/worker.py SPEC.json
"""

from __future__ import annotations

import json
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import gen
import oracle
from tracer import Tracer, layer_totals

from fisherhash import cli, encoder, evaluation
from fisherhash.binary_codes import BinaryCodeMatrix

# (module, attribute where the caller looks it up, layer name, counter).
TRACE_TARGETS = [
    ("fisherhash.cli", "train", "training.train", None),
    ("fisherhash.cli", "load_dataset", "datasets.load_dataset", None),
    ("fisherhash.cli", "load_labels", "datasets.load_labels", None),
    ("fisherhash.datasets", "load_labels", "datasets.load_labels", None),
    ("fisherhash.training", "pair_loss_full", "training.pair_loss_full", None),
    ("fisherhash.pairwise", "PairSets.all_pairs_from_label_sets",
     "pairwise.PairSets.all_pairs_from_label_sets",
     lambda pairs: ("pairwise.pairs_built", pairs.count)),
    ("fisherhash.training", "pair_gradient", "pairwise.pair_gradient", None),
    ("fisherhash.encoder", "forward", "encoder.forward", None),
    ("fisherhash.encoder", "backward", "encoder.backward", None),
    ("fisherhash.encoder", "SGD.step", "encoder.SGD.step", None),
    ("fisherhash.training", "update_centers", "centers.update_centers", None),
    ("fisherhash.training", "update_codes", "centers.update_codes", None),
    ("fisherhash.training", "metrics_report", "evaluation.metrics_report", None),
    ("fisherhash.cli", "metrics_report", "evaluation.metrics_report", None),
    ("fisherhash.evaluation", "relevance_matrix", "evaluation.relevance_matrix", None),
    ("fisherhash.cli", "write_metrics_csv", "evaluation.write_metrics_csv", None),
    ("fisherhash.cli", "write_metrics_json", "evaluation.write_metrics_json", None),
    ("fisherhash.cli", "search", "evaluation.search", None),
    ("fisherhash.evaluation", "search", "evaluation.search", None),
    ("fisherhash.evaluation", "hamming_cross", "binary_codes.hamming_cross",
     lambda dist: ("binary_codes.hamming_cross.entries", dist.size)),
    ("fisherhash.binary_codes", "BinaryCodeMatrix.load",
     "binary_codes.BinaryCodeMatrix.load", None),
]
# The CLI commands are spans the benchmark opens around cli.main.
LAYERS = list(dict.fromkeys(
    ["cli.train", "cli.eval", "cli.query"] + [t[2] for t in TRACE_TARGETS]))
COUNTS = ["pairwise.pairs_built", "binary_codes.hamming_cross.entries"]

# Held-out MAP at chance is about 0.1 with ten balanced classes.
MIN_HELDOUT_MAP = 0.5


class CliWorkload:
    """One `fisherhash <command>` call per operation, output in its own dir."""

    command = ""
    one_op_per_process = True

    def __init__(self, spec: dict):
        self.spec = spec
        self.span = "cli." + self.command
        self.work = Path(spec["work"])
        self.inputs = Path(spec["inputs"])
        self.index = self.inputs / "index"

    def args(self) -> list:
        raise NotImplementedError

    def operate(self, i: int):
        out = self.work / f"op{i}"
        return cli.main([self.command, *self.args(), "--out", str(out)]), out

    def check(self, output) -> tuple[bool, float | None]:
        rc, out = output
        try:
            return self.check_output(out) if rc == 0 else (False, None)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def check_output(self, out: Path) -> tuple[bool, float | None]:
        raise NotImplementedError


class Train(CliWorkload):
    command = "train"

    def args(self) -> list:
        return ["--config", str(self.inputs / "train.json")]

    def check_output(self, out: Path) -> tuple[bool, float | None]:
        if not oracle.check_train_report(out / "report.json"):
            return False, None
        features, labels, query, rest = gen.train_data(self.spec["seed"])
        state = encoder.load_checkpoint(out / "encoder.fhnn")
        u, _ = encoder.forward(state, features[:, query].astype(np.float64))
        q_signs = np.where(u >= 0, 1, -1).astype(np.int8).T
        db_signs = BinaryCodeMatrix.load(out / "codes.fhsh").dense().T
        score = oracle.heldout_map(q_signs, labels[query], db_signs, labels[rest])
        return score >= MIN_HELDOUT_MAP, score


class Eval(CliWorkload):
    command = "eval"

    def args(self) -> list:
        return ["--db-codes", str(self.index / "codes.fhsh"),
                "--db-labels", str(self.index / "labels.txt"),
                "--query-codes", str(self.inputs / "queries.fhsh"),
                "--query-labels", str(self.inputs / "query_labels.txt"),
                "--classes", str(gen.CLASSES), "--ks", ",".join(map(str, gen.EVAL_KS))]

    def check_output(self, out: Path) -> tuple[bool, float | None]:
        found = oracle.read_map_csv(out / "map.csv")
        expected = {int(k): v for k, v in self.spec["maps"].items()}
        return oracle.check_maps(found, expected), found.get(gen.N_DB)


class Query(CliWorkload):
    command = "query"

    def __init__(self, spec: dict):
        super().__init__(spec)
        refs = np.load(spec["references"])
        self.top_idx, self.top_dist = refs["top_idx"], refs["top_dist"]
        self.q_labels, self.db_labels = refs["q_labels"], refs["db_labels"]

    def args(self) -> list:
        return ["--index", str(self.index), "--queries", str(self.inputs / "queries.fhsh"),
                "--k", str(gen.TOP_K)]

    def check_output(self, out: Path) -> tuple[bool, float | None]:
        rows = oracle.read_results_csv(out / "results.csv")
        if not oracle.check_results(rows, self.top_idx, self.top_dist):
            return False, None
        returned = rows[:, 2].reshape(self.top_idx.shape)
        return True, oracle.returned_map(returned, self.q_labels, self.db_labels)


class OnlineSearch:
    """Closed loop, one client: one single-query `search` per operation."""

    span = None
    one_op_per_process = False

    def __init__(self, spec: dict):
        inputs = Path(spec["inputs"])
        self.db = BinaryCodeMatrix.load(inputs / "index" / "codes.fhsh")
        queries = BinaryCodeMatrix.load(inputs / "queries.fhsh")
        self.requests = [queries.column(i) for i in range(queries.n)]
        self.order = gen.request_order(spec["seed"], 1 << 16)
        refs = np.load(spec["references"])
        self.top_idx, self.top_dist = refs["top_idx"], refs["top_dist"]
        self.q_labels, self.db_labels = refs["q_labels"], refs["db_labels"]

    def operate(self, i: int):
        q = int(self.order[i % self.order.size])
        return q, evaluation.search(self.requests[q], self.db, k=gen.TOP_K)

    def check(self, output) -> tuple[bool, float | None]:
        q, results = output
        ok = (len(results) == 1
              and np.array_equal(results[0].indices, self.top_idx[q])
              and np.array_equal(results[0].distances, self.top_dist[q]))
        if not ok:
            return False, None
        return True, oracle.returned_map(results[0].indices[None], self.q_labels[[q]],
                                         self.db_labels)


WORKLOADS = {"train": Train, "eval": Eval, "query": Query, "search-online": OnlineSearch}
_FAILED = object()


def timed_op(workload, op: int, tracer: Tracer | None = None):
    """Run and time one operation: (seconds, output, or _FAILED if it raised).

    With a tracer, the tracer is installed for this operation only and
    its spans are tagged with op.
    """
    if tracer:
        tracer.install(TRACE_TARGETS)
        tracer.op = op
    span = tracer.span(workload.span) if tracer and workload.span else nullcontext()
    try:
        t0 = time.perf_counter()
        try:
            with span:
                output = workload.operate(op)
        except Exception:
            traceback.print_exc()
            output = _FAILED
        return time.perf_counter() - t0, output
    finally:
        if tracer:
            tracer.op = None
            tracer.restore()


def checked(workload, elapsed: float, output) -> tuple[float, bool, float | None]:
    """Check an operation's output after the clock stopped: (seconds, ok, quality)."""
    if output is _FAILED:
        return elapsed, False, None
    try:
        return (elapsed, *workload.check(output))
    except Exception:
        traceback.print_exc()
        return elapsed, False, None


def peak_rss_mb() -> float:
    """High-water RSS of this process's own address space.

    getrusage's ru_maxrss survives exec, so it would report the parent's
    size at fork; VmHWM starts afresh with the exec'd image.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def measure(workload, seconds: float, first: int, tracer: Tracer | None) -> tuple[list, float]:
    """Run operations first, first + 1, ... back to back until `seconds`
    have passed (at least one).  With a tracer, odd-numbered operations
    are traced, so plain and traced operations alternate.  Returns their
    (seconds, ok, quality, traced) records and the peak RSS right after
    the first operation.

    Outputs are checked only after the last operation: a check between
    online requests would evict the database from the CPU caches and
    time the refill as part of the next request."""
    runs, rss = [], None
    start = time.perf_counter()
    while not runs or time.perf_counter() - start < seconds:
        op = first + len(runs)
        traced = tracer is not None and op % 2 == 1
        elapsed, output = timed_op(workload, op, tracer if traced else None)
        if rss is None:
            rss = peak_rss_mb()
        runs.append((elapsed, output, traced))
    return [(*checked(workload, elapsed, output), traced)
            for elapsed, output, traced in runs], rss


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    workload = WORKLOADS[spec["workload"]](spec)
    tracer = Tracer() if spec["trace"] else None
    ops, rss = measure(workload, spec["seconds"], spec["first_op"], tracer)
    result = {
        "op_s": [t for t, _, _, _ in ops],
        "traced": [traced for _, _, _, traced in ops],
        "failed": sum(not ok for _, ok, _, _ in ops),
        "quality": [q for _, ok, q, _ in ops if ok and q is not None],
        "peak_rss_mb": rss,
    }
    if tracer:
        for target in sorted(tracer.missing):
            print(f"warning: trace target {target} not found; its layer reports 0",
                  file=sys.stderr)
        result["layers"] = layer_totals(tracer.spans)
        result["counts"] = tracer.counts
        with open(spec["spans"], "a", encoding="utf-8") as fh:
            for s in tracer.spans:
                fh.write(json.dumps(s._asdict()) + "\n")
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
