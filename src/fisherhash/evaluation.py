"""Exact Hamming-ranking retrieval and the usual IR metrics.

Search is a linear scan over packed codes (XOR + popcount), one block
of queries at a time on one thread; ranking ties at equal distance
break by ascending database index so results are deterministic and
oracle-comparable.  Metrics: MAP@k, precision and recall at N, and a
precision/recall sweep over Hamming radius, accumulated one query at a
time from that query's ranked relevance and its running hit count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .binary_codes import BinaryCodeMatrix, hamming_cross
from .datasets import distinct_label_sets, write_json

# Upper bound on the scratch distance block, in entries.
_BLOCK_ENTRIES = 4_000_000


@dataclass
class RankedResult:
    """Top-k neighbours of one query, nearest first."""

    query: int
    indices: np.ndarray
    distances: np.ndarray


def _ranked_blocks(queries: BinaryCodeMatrix, database: BinaryCodeMatrix, k: int):
    """Stable Hamming ranking of the database, one block of queries at a time.

    Yields (start, dist, order) per block: the unsorted distances of
    queries start, start + 1, ... and the first k columns of their stable
    argsort.  Distances are small unsigned ints, so the sort is a radix
    sort, and ties keep ascending database order.
    """
    n_q, n_db = queries.n, database.n
    block = max(1, _BLOCK_ENTRIES // n_db)
    for start in range(0, n_q, block):
        dist = hamming_cross(queries.take(range(start, min(start + block, n_q))), database)
        yield start, dist, np.argsort(dist, axis=1, kind="stable")[:, :k]


def search(queries: BinaryCodeMatrix, database: BinaryCodeMatrix, k: int) -> list[RankedResult]:
    """Exact top-k by Hamming distance, ties by ascending item index."""
    if not 1 <= k <= database.n:
        raise ValueError(f"k must be in [1, {database.n}], got {k}")
    results = []
    for start, dist, order in _ranked_blocks(queries, database, k):
        for i, row in enumerate(order):
            # Copies, so a result does not keep the block's full argsort alive.
            indices = row.copy()
            results.append(RankedResult(start + i, indices, dist[i, indices].astype(np.int64)))
    return results


def average_precision(flags, r_total: int) -> float:
    """AP over a truncated ranked 0/1 relevance list.

    Normalizes by min(r_total, list length): the number of relevant
    items that could have been retrieved within the truncation.
    """
    flags = np.asarray(flags)
    if flags.size == 0:
        raise ValueError("empty ranked list")
    if r_total < 1:
        raise ValueError(f"r_total must be >= 1, got {r_total}")
    hits = np.nonzero(flags)[0]
    if hits.size == 0:
        return 0.0
    precisions = (np.arange(hits.size) + 1.0) / (hits + 1.0)
    return float(precisions.sum() / min(r_total, flags.size))


def relevance_matrix(query_label_sets, db_label_sets, num_classes: int) -> np.ndarray:
    """Boolean (n_q, n_db) matrix: entry true iff label sets intersect.

    Raises ValueError for a class id outside [0, num_classes).
    """
    indicators = []
    for label_sets in (query_label_sets, db_label_sets):
        ind = np.zeros((len(label_sets), num_classes), dtype=bool)
        for i, labels in enumerate(label_sets):
            labels = list(labels)
            if not all(0 <= c < num_classes for c in labels):
                raise ValueError(
                    f"label set {sorted(labels)} has a class id outside [0, {num_classes})"
                )
            ind[i, labels] = True
        indicators.append(ind)
    return indicators[0] @ indicators[1].T


@dataclass
class MetricsReport:
    """MAP@k plus P@N / R@N and radius-swept PR curves."""

    map_at: dict
    top_n: np.ndarray        # columns: N, precision, recall
    pr_radius: np.ndarray    # columns: radius, precision, recall
    n_queries: int
    n_database: int
    config_hash: str | None = None
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "config_hash": self.config_hash,
            "n_queries": self.n_queries,
            "n_database": self.n_database,
            "map": {str(k): v for k, v in self.map_at.items()},
            "top_n": [
                {"n": int(n), "precision": p, "recall": r} for n, p, r in self.top_n
            ],
            "pr_radius": [
                {"radius": int(r), "precision": p, "recall": rc}
                for r, p, rc in self.pr_radius
            ],
            **self.extra,
        }


def metrics_report(
    queries: BinaryCodeMatrix,
    database: BinaryCodeMatrix,
    query_label_sets,
    db_label_sets,
    ks,
    num_classes: int | None = None,
    max_n: int | None = None,
    config_hash: str | None = None,
) -> MetricsReport:
    """Rank the database for every query and compute all metrics.

    Queries with no relevant database item are excluded from MAP and
    recall averages (their precision is still counted).  Queries with
    equal code words and an equal label set form one pattern, and only
    each pattern's first occurrence is ranked, streamed one block of
    patterns at a time.  A pattern's row is scored once: its ranked
    relevance comes from a table of distinct query label sets x
    distinct database label sets, and one integer running count of hits
    gives P@N, R@N and the hits within every Hamming radius.  A row is
    kept for the pattern's later occurrences only, until its last.
    Per-query sums are taken in query order, so every mean equals the
    one over the whole n_q x n_db matrices.
    Raises ValueError for a class id outside [0, num_classes).
    """
    if len(query_label_sets) != queries.n or len(db_label_sets) != database.n:
        raise ValueError("label table sizes do not match code tables")
    ks = sorted(set(int(k) for k in ks))
    if ks and not 1 <= ks[0] <= ks[-1] <= database.n:
        raise ValueError(f"every k must be in [1, {database.n}], got {ks}")
    if max_n is not None and max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    q_sets, q_pid = distinct_label_sets(query_label_sets)
    db_sets, db_pid = distinct_label_sets(db_label_sets)
    if num_classes is None:
        num_classes = 1 + max(max(s) for s in [*q_sets, *db_sets])
    table = relevance_matrix(q_sets, db_sets, num_classes)
    r_totals = (table @ np.bincount(db_pid, minlength=len(db_sets)))[q_pid]
    n_q, n_db, k_bits = queries.n, database.n, queries.K
    n_max = n_db if max_n is None else min(int(max_n), n_db)
    ns = np.arange(1, n_max + 1, dtype=np.float64)

    # A query's scored row depends only on its code words and its
    # distinct label set, its pattern.
    keys = np.column_stack([queries.words, q_pid.astype(np.uint64)])
    _, first, pattern, left = np.unique(
        keys, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    pattern = pattern.ravel()
    rows = (
        (dist_row, order_row)
        for _, dist, order in _ranked_blocks(queries.take(np.sort(first)), database, n_db)
        for dist_row, order_row in zip(dist, order)
    )
    cached = {}

    hits_at_1 = np.zeros(n_q)
    aps = {k: [] for k in ks}
    precision_sum = np.zeros(n_max)
    recall_sum = np.zeros(n_max)
    # Radius sweep: counts of retrieved / relevant-retrieved per query
    # at Hamming distance <= r, for r = 0..K.
    retrieved = np.zeros((n_q, k_bits + 1), dtype=np.int64)
    rel_retrieved = np.zeros((n_q, k_bits + 1), dtype=np.int64)
    # cum[j]: relevant items among the first j ranked.
    cum = np.zeros(n_db + 1, dtype=np.int32)
    for q in range(n_q):
        p = pattern[q]
        r_total = r_totals[q]
        if first[p] == q:
            dist_row, order_row = next(rows)
            rel = table[q_pid[q]].take(db_pid.take(order_row))
            np.cumsum(rel, dtype=np.int32, out=cum[1:])
            hits = cum[1:n_max + 1]
            ap_row = [average_precision(rel[:k], int(r_total)) for k in ks] if r_total else []
            # The ranking is sorted by distance, so the items within
            # radius r are the first ends[r] ranked.
            ends = np.bincount(dist_row, minlength=k_bits + 1).cumsum()
            row = hits, ap_row, ends, cum[ends]
            if left[p] > 1:
                row = cached[p] = (hits.copy(), *row[1:])
        else:
            row = cached[p]
        left[p] -= 1
        if not left[p]:
            cached.pop(p, None)
        hits, ap_row, retrieved[q], rel_retrieved[q] = row
        hits_at_1[q] = hits[0]
        precision_sum += hits / ns
        if r_total:
            recall_sum += hits / r_total
            for k, ap in zip(ks, ap_row):
                aps[k].append(ap)

    has_rel = r_totals > 0
    map_at = {k: float(np.mean(v)) if v else 0.0 for k, v in aps.items()}
    precision_n = precision_sum / n_q
    if not has_rel.any():
        recall_n = recall_sum
    elif n_max == 1:
        # numpy sums a one-column matrix over its rows pairwise, not row
        # by row; sum R@1 the same way.
        recall_n = (hits_at_1[has_rel] / r_totals[has_rel]).mean(keepdims=True)
    else:
        recall_n = recall_sum / has_rel.sum()
    top_n = np.column_stack([ns, precision_n, recall_n])

    pr_rows = []
    for r in range(k_bits + 1):
        nonempty = retrieved[:, r] > 0
        if nonempty.any():
            precision = float(
                (rel_retrieved[nonempty, r] / retrieved[nonempty, r]).mean()
            )
        else:
            precision = 0.0
        if has_rel.any():
            recall = float((rel_retrieved[has_rel, r] / r_totals[has_rel]).mean())
        else:
            recall = 0.0
        pr_rows.append((r, precision, recall))

    return MetricsReport(
        map_at=map_at,
        top_n=top_n,
        pr_radius=np.array(pr_rows, dtype=np.float64),
        n_queries=n_q,
        n_database=n_db,
        config_hash=config_hash,
    )


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def write_metrics_csv(report: MetricsReport, out_dir) -> dict:
    """Write map.csv, prn.csv, pr.csv; returns the created paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {}
    map_path = out / "map.csv"
    with open(map_path, "w", encoding="utf-8") as fh:
        fh.write("k,map\n")
        for k, v in sorted(report.map_at.items()):
            fh.write(f"{k},{_fmt(v)}\n")
    paths["map"] = map_path
    prn_path = out / "prn.csv"
    with open(prn_path, "w", encoding="utf-8") as fh:
        fh.write("N,precision,recall\n")
        for n, p, r in report.top_n:
            fh.write(f"{int(n)},{_fmt(p)},{_fmt(r)}\n")
    paths["prn"] = prn_path
    pr_path = out / "pr.csv"
    with open(pr_path, "w", encoding="utf-8") as fh:
        fh.write("radius,precision,recall\n")
        for r, p, rc in report.pr_radius:
            fh.write(f"{int(r)},{_fmt(p)},{_fmt(rc)}\n")
    paths["pr"] = pr_path
    return paths


def write_metrics_json(report: MetricsReport, path) -> None:
    write_json(path, report.as_dict())
