"""fisherhash benchmark: run one workload for one seed, print one JSON line.

    python3 perfbench/run.py --workload train --seed 1 --seconds 15 --trace 0

fisherhash is imported from the src/ directory of the checkout that holds
this script; nothing needs installing.  The run sets up its inputs from
the seed (timed as setup_s), computes the references its checks use,
then runs the workload's operations in worker.py processes for
--seconds.  With --trace 1, plain and traced operations alternate, the
traced ones time each layer from outside, and the result holds the
per-layer metrics instead of the end-to-end ones.
The last line of stdout is {"correct", "attempted", "failed", "metrics"};
every other output goes before it or to stderr.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "fisherhash" / "__init__.py").is_file():
    sys.exit(f"error: no fisherhash sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import gen  # noqa: E402
import oracle  # noqa: E402
from fisherhash import cli  # noqa: E402
from worker import COUNTS, LAYERS, WORKLOADS  # noqa: E402

# Set-up is short, and the speed of a shared host drifts within seconds,
# so set-up is repeated both before and after the operations: each time
# at least SETUP_MIN_REPEATS times and until SETUP_MIN_S have passed
# (train's set-up takes milliseconds, retrieval's a few tenths).
# setup_s is the median of all repetitions.
SETUP_MIN_REPEATS = 5
SETUP_MIN_S = 1.0
# The whole run must end within 180 s.
RUN_LIMIT_S = 170.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def setup(workload: str, seed: int, out: Path) -> None:
    """Generate and write the workload's inputs; retrieval also indexes."""
    if workload == "train":
        gen.write_train_inputs(seed, out)
        return
    paths = gen.write_retrieval_inputs(seed, out)
    with redirect_stdout(sys.stderr):
        rc = cli.main(["index", "--codes", str(paths["db"]), "--labels", str(paths["db_labels"]),
                       "--classes", str(gen.CLASSES), "--out", str(out / "index")])
    if rc != 0:
        raise RuntimeError(f"fisherhash index exited with {rc}")


def timed_setups(workload: str, seed: int, work: Path, first: int) -> list:
    """Set up into work/setup<first>, work/setup<first + 1>, ...; returns
    the times.  Only setup0, the inputs of the operations, is kept."""
    times = []
    while len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_S:
        out = work / f"setup{first + len(times)}"
        t0 = time.perf_counter()
        setup(workload, seed, out)
        times.append(time.perf_counter() - t0)
        if out.name != "setup0":
            shutil.rmtree(out)
    return times


def references(seed: int, path: Path) -> dict:
    """Reference top-k per query (saved to path) and MAP@k; returns the MAPs."""
    q_signs, q_labels, db_signs, db_labels = gen.class_codes(seed)
    top_idx, top_dist, maps = oracle.reference(
        q_signs, q_labels, db_signs, db_labels, gen.TOP_K, gen.EVAL_KS)
    np.savez(path, top_idx=top_idx, top_dist=top_dist, q_labels=q_labels, db_labels=db_labels)
    return {str(k): v for k, v in maps.items()}


def environment(seed: int) -> dict:
    src_lines = sum(len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)), "seed": seed, "src_lines": src_lines,
    }


def percentile(values, q: float) -> float:
    """Nearest-rank q-th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def end_to_end(result: dict) -> dict:
    """The end-to-end metrics of one run, as {name: (value, unit)}."""
    op_ms = [1e3 * t for t in result["op_s"]]
    quality = result["quality"]
    return {
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "op_p50_ms": (statistics.median(op_ms), "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "map": (statistics.fmean(quality) if quality else 0.0, "ratio"),
    }


def layer_metrics(results: list) -> dict:
    """Per-layer metrics from the workers' results.

    Seconds, self seconds, calls and counts are per traced operation.
    The overhead is the median traced minus the median plain operation.
    """
    times = {False: [], True: []}
    totals, counts = {}, {}
    for r in results:
        for t, traced in zip(r["op_s"], r["traced"]):
            times[traced].append(t)
        for name, values in r.get("layers", {}).items():
            totals[name] = [a + b for a, b in zip(totals.get(name, (0, 0, 0)), values)]
        for name, n in r.get("counts", {}).items():
            counts[name] = counts.get(name, 0) + n
    ops = len(times[True])
    metrics = {}
    for name in LAYERS:
        inclusive, own, calls = totals.get(name, (0.0, 0.0, 0))
        metrics[f"{name}.s"] = (inclusive / ops, "s")
        metrics[f"{name}.self_s"] = (own / ops, "s")
        metrics[f"{name}.calls"] = (calls / ops, "count")
    for name in COUNTS:
        metrics[name] = (counts.get(name, 0) / ops, "count")
    plain_ms = 1e3 * statistics.median(times[False])
    traced_ms = 1e3 * statistics.median(times[True])
    metrics["trace.overhead_ms"] = (traced_ms - plain_ms, "ms")
    metrics["trace.overhead_pct"] = (100 * (traced_ms - plain_ms) / plain_ms, "%")
    return metrics


def start_worker(spec: dict, deadline: float) -> dict:
    """Run one worker process to completion and return its result."""
    spec_path = Path(spec["work"]) / f"spec{spec['first_op']}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    # The worker's stdout goes to stderr so the result stays the last stdout line.
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(spec_path)],
        cwd=ROOT, env=env, stdout=sys.stderr,
        timeout=max(1.0, deadline - time.perf_counter()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(Path(spec["result"]).read_text(encoding="utf-8"))


def measure(args, spec: dict, deadline: float) -> dict:
    """Start workers until --seconds have passed: one per operation for
    the CLI workloads, one serving process for search-online.  Traced,
    odd-numbered operations are traced, and a run has at least one plain
    and one traced operation."""
    one_op = WORKLOADS[args.workload].one_op_per_process
    min_ops = 2 if args.trace else 1
    results, ops = [], 0
    start = time.perf_counter()
    while ops < min_ops or time.perf_counter() - start < args.seconds:
        result = start_worker({
            **spec, "seconds": 0.0 if one_op else args.seconds, "trace": bool(args.trace),
            "first_op": ops, "result": str(Path(spec["work"]) / f"result{ops}.json"),
        }, deadline)
        ops += len(result["op_s"])
        results.append(result)
    merged = {
        "op_s": [t for r in results for t in r["op_s"]],
        "failed": sum(r["failed"] for r in results),
        "quality": [q for r in results for q in r["quality"]],
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    if args.trace:
        merged["layers"] = layer_metrics(results)
    return merged


def run(args) -> dict:
    deadline = time.perf_counter() + RUN_LIMIT_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_s = timed_setups(args.workload, args.seed, work, 0)
        spec = {
            "workload": args.workload, "seed": args.seed,
            "work": str(work), "inputs": str(work / "setup0"),
            "spans": str(ROOT / ".perfbench_work" / f"spans-{args.workload}-{args.seed}.jsonl"),
        }
        Path(spec["spans"]).unlink(missing_ok=True)
        if args.workload != "train":
            spec["references"] = str(work / "references.npz")
            spec["maps"] = references(args.seed, work / "references.npz")
        result = measure(args, spec, deadline)
        result["setup_s"] = setup_s + timed_setups(args.workload, args.seed, work, len(setup_s))
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    env = environment(args.seed)
    try:
        result = run(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    e2e = end_to_end(result)
    op_ms = [1e3 * t for t in result["op_s"]]
    print(json.dumps({"env": env, "workload": args.workload, "trace": args.trace}))
    print(f"{args.workload} seed {args.seed}: {len(op_ms)} ops, {result['failed']} failed; "
          + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in e2e.items())
          + f"; tail, not bounded: op_p90_ms {percentile(op_ms, 90):.6g}, "
          f"op_p99_ms {percentile(op_ms, 99):.6g}")
    metrics = result["layers"] if args.trace else e2e
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": len(result["op_s"]),
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
