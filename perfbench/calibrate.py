"""Measure how far fisherhash's trained codes sit from their class centers.

The retrieval workloads use synthetic codes: a random center per class
and i.i.d. bit flips (gen.DB_FLIP for the database, gen.QUERY_FLIP for
the queries).  This script derives those rates from codes fisherhash
itself produces.  It trains on the `train` workload's data at 64 bits
(gen.BITS) and prints, per seed, the share of bits that disagree with the
class center in the database codes (the train split, codes.fhsh) and in
the held-out query codes (the encoder applied to the query split), plus
the mean distance between the trained centers.

    python3 perfbench/calibrate.py --seeds 1,2,3

Each seed trains once, about 30 s on 2 CPUs.  Scratch files go under
.perfbench_work/ and are deleted afterwards.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import numpy as np  # noqa: E402

import gen  # noqa: E402
from fisherhash import cli, encoder  # noqa: E402
from fisherhash.binary_codes import BinaryCodeMatrix  # noqa: E402


def flip_rates(seed: int, work: Path) -> dict:
    config = gen.write_train_inputs(seed, work)
    spec = json.loads(config.read_text(encoding="utf-8"))
    spec["hyper"]["bits"] = gen.BITS
    config.write_text(json.dumps(spec), encoding="utf-8")
    with redirect_stdout(sys.stderr):
        rc = cli.main(["train", "--config", str(config), "--out", str(work / "run")])
    if rc != 0:
        raise RuntimeError(f"fisherhash train exited with {rc}")
    features, labels, query, rest = gen.train_data(seed)
    centers = BinaryCodeMatrix.load(work / "run" / "centers.fhsh").dense().T
    db = BinaryCodeMatrix.load(work / "run" / "codes.fhsh").dense().T
    state = encoder.load_checkpoint(work / "run" / "encoder.fhnn")
    u, _ = encoder.forward(state, features[:, query].astype(np.float64))
    q = np.where(u >= 0, 1, -1).T
    apart = (centers[:, None, :] != centers[None, :, :]).sum(axis=2)
    return {
        "seed": seed,
        "db_flip": float(np.mean(db != centers[labels[rest]])),
        "query_flip": float(np.mean(q != centers[labels[query]])),
        "center_distance": float(apart[np.triu_indices(len(centers), 1)].mean()),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="1,2,3", help="comma-separated training seeds")
    args = p.parse_args(argv)
    root = HERE.parent / ".perfbench_work" / "calibrate"
    rows = []
    try:
        for seed in (int(s) for s in args.seeds.split(",")):
            shutil.rmtree(root, ignore_errors=True)
            rows.append(flip_rates(seed, root))
            print(json.dumps(rows[-1]))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    print(json.dumps({key: statistics.fmean(r[key] for r in rows)
                      for key in ("db_flip", "query_flip", "center_distance")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
