"""Independent references the benchmark checks fisherhash's outputs against.

Distances come from a dense +-1 dot product, d = (K - <q, x>) / 2, not
from packed XOR/popcount; each query's ranking is a stable sort, so equal
distances keep ascending item index, the order fisherhash promises.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

# Rows of queries ranked per block; bounds the scratch memory.
_BLOCK = 100


def rankings(q_signs, db_signs):
    """Yield (first query, order, sorted distances) per block of queries."""
    k = q_signs.shape[1]
    db = db_signs.astype(np.float32)
    for start in range(0, q_signs.shape[0], _BLOCK):
        dots = q_signs[start:start + _BLOCK].astype(np.float32) @ db.T
        dist = ((k - dots) / 2).astype(np.uint16)
        order = np.argsort(dist, axis=1, kind="stable")
        yield start, order, np.take_along_axis(dist, order, axis=1)


def average_precisions(relevant_ranked: np.ndarray, k: int, totals=None) -> np.ndarray:
    """AP@k per row of a ranked 0/1 relevance matrix, normalised by
    min(relevant items, k); NaN for a row with no relevant item.  The
    relevant items per row are counted in the matrix unless totals gives
    them (for rankings cut at k)."""
    if totals is None:
        totals = relevant_ranked.sum(axis=1)
    top = relevant_ranked[:, :k]
    hits = np.cumsum(top, axis=1)
    ranks = np.arange(1, top.shape[1] + 1)
    sums = (np.where(top, hits / ranks, 0.0)).sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(totals > 0, sums / np.minimum(totals, k), np.nan)


def reference(q_signs, q_labels, db_signs, db_labels, top_k: int, ks):
    """Top-k items and distances per query, and MAP@k for each k."""
    n_q = q_signs.shape[0]
    top_idx = np.empty((n_q, top_k), dtype=np.int64)
    top_dist = np.empty((n_q, top_k), dtype=np.int64)
    aps = {k: np.empty(n_q) for k in ks}
    for start, order, dist in rankings(q_signs, db_signs):
        stop = start + order.shape[0]
        top_idx[start:stop] = order[:, :top_k]
        top_dist[start:stop] = dist[:, :top_k]
        relevant = db_labels[order] == q_labels[start:stop, None]
        for k in ks:
            aps[k][start:stop] = average_precisions(relevant, k)
    maps = {k: float(np.nanmean(a)) for k, a in aps.items()}
    return top_idx, top_dist, maps


def returned_map(top_idx, q_labels, db_labels) -> float:
    """MAP@k of returned top-k lists (one row of database indices per
    query), the same MAP@k as fisherhash's over the full ranking."""
    k = top_idx.shape[1]
    relevant = db_labels[top_idx] == np.asarray(q_labels)[:, None]
    totals = np.bincount(db_labels)[q_labels]
    return float(np.nanmean(average_precisions(relevant, k, totals)))


def read_results_csv(path) -> np.ndarray:
    """results.csv rows (query, rank, item, distance) as an int64 array."""
    return np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)


def check_results(rows, top_idx, top_dist) -> bool:
    """results.csv rows equal the reference top-k."""
    n_q, k = top_idx.shape
    if rows.shape != (n_q * k, 4):
        return False
    expected = np.column_stack([
        np.repeat(np.arange(n_q), k), np.tile(np.arange(1, k + 1), n_q),
        top_idx.ravel(), top_dist.ravel(),
    ])
    return bool(np.array_equal(rows, expected))


def read_map_csv(path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        return {int(r["k"]): float(r["map"]) for r in csv.DictReader(fh)}


def check_maps(found: dict, expected: dict, rel_tol: float = 1e-9) -> bool:
    """Same k values and MAP equal up to summation order."""
    return found.keys() == expected.keys() and all(
        math.isclose(found[k], expected[k], rel_tol=rel_tol, abs_tol=1e-12)
        for k in expected)


def check_train_report(path) -> bool:
    """report.json has epoch records, all of them finite."""
    with open(path, encoding="utf-8") as fh:
        epochs = json.load(fh).get("epochs") or []
    return bool(epochs) and all(
        isinstance(v, (int, float)) and math.isfinite(v)
        for record in epochs for v in record.values())


def heldout_map(q_signs, q_labels, db_signs, db_labels) -> float:
    """MAP over the full ranking of the database for every query."""
    _, _, maps = reference(q_signs, q_labels, db_signs, db_labels, 1, [db_signs.shape[0]])
    return maps[db_signs.shape[0]]
