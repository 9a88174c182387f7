"""Exact Hamming-ranking retrieval and the usual IR metrics.

Queries are measured (XOR + popcount) against the distinct database
codes only, one block of queries at a time on one thread; every item of
a code shares its distance.  Ranking ties at equal distance break by
ascending database index, so results are deterministic and
oracle-comparable.  Both rankings read one stream of per-query rows of
code distances.  `search` picks each query's top k from its row and
the code counts.  `metrics_report` counts each full ranking's items and
hits per distance bucket, builds the hits at N from those counts, and
ranks the items only of a row where one bucket holds both relevant and
irrelevant items.  Metrics: MAP@k, precision and recall at N, and a
precision/recall sweep over Hamming radius, summed one query at a time.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .binary_codes import BinaryCodeMatrix, CodeGroups, code_patterns, hamming_cross
from .datasets import distinct_label_sets, relevance_matrix

# Upper bound on the scratch distance block, in entries.
_BLOCK_ENTRIES = 4_000_000
# Rows formatted by one `%` in format_rows.
_CHUNK_ROWS = 4096


@dataclass
class RankedResult:
    """Top-k neighbours of one query, nearest first."""

    query: int
    indices: np.ndarray
    distances: np.ndarray


def _code_distances(queries: BinaryCodeMatrix, database: BinaryCodeMatrix):
    """Each query's row of distances to database.groups().codes, in query order.

    A row holds small unsigned ints, from which both rankings are made.
    Queries are measured one block at a time, and blocks are sized as if
    every item were measured, so the block size does not depend on how
    often codes repeat.
    """
    codes = database.groups().codes
    block = max(1, _BLOCK_ENTRIES // database.n)
    for start in range(0, queries.n, block):
        yield from hamming_cross(queries.take(range(start, min(start + block, queries.n))), codes)


def _top_k(code_dist: np.ndarray, groups: CodeGroups, k: int) -> tuple[np.ndarray, np.ndarray]:
    """One query's k nearest items, ties by ascending index, and their distances.

    The code distances weighted by the code counts give t, the distance
    of the k-th nearest item, and `need`, the number of items at t among
    the k.  The candidates are every item of each code nearer than t and
    the first `need` items of each code at t: a superset of the k that
    holds each item once.  Sorted by index, then stably by distance, its
    first k are the k of a stable argsort over all items.
    """
    cum = np.bincount(code_dist, groups.counts).cumsum()
    t = int(np.searchsorted(cum, k))
    need = k - int(cum[t - 1]) if t else k
    picked = np.flatnonzero(code_dist <= t)
    lens = groups.counts[picked]
    np.minimum(lens, need, out=lens, where=code_dist[picked] == t)
    ends = lens.cumsum()
    cand = groups.items[np.arange(ends[-1]) + np.repeat(groups.starts[picked] - ends + lens, lens)]
    cand.sort()
    item_dist = code_dist[groups.code_of[cand]]
    order = np.argsort(item_dist, kind="stable")[:k]
    return cand[order], item_dist[order].astype(np.int64)


def search(queries: BinaryCodeMatrix, database: BinaryCodeMatrix, k: int) -> list[RankedResult]:
    """Exact top-k by Hamming distance, ties by ascending item index.

    Each query is measured against the distinct database codes only, and
    its k items are picked from those distances (`_top_k`), so no
    per-item distance row is built or sorted.  The grouping of the
    database by code is made once per code table, on its first search.
    """
    if not 1 <= k <= database.n:
        raise ValueError(f"k must be in [1, {database.n}], got {k}")
    groups = database.groups()
    return [RankedResult(q, *_top_k(row, groups, k))
            for q, row in enumerate(_code_distances(queries, database))]


def _ap_at(ranks: np.ndarray, k: int, r_total: int) -> float:
    """AP of a ranking cut at k, normalized by min(r_total, k), from the
    ascending 0-based ranks of its relevant items; ranks from k on are ignored."""
    hits = int(np.searchsorted(ranks, k))
    if not hits:
        return 0.0
    precisions = (np.arange(hits) + 1.0) / (ranks[:hits] + 1.0)
    return float(precisions.sum() / min(r_total, k))


def _pure_runs(stops: list, rel_counts: list, n_max: int, k_max: int):
    """A pure row's runs that start below n_max, and its relevant ranks below k_max.

    stops and rel_counts: each nonempty bucket's end rank and relevant
    items, nearest first.  Alike buckets merge into runs (start, stop, c,
    rising): at N = start + 1 .. stop the hits are N + c if rising, else
    c.  Runs with no hits are left out."""
    runs = []
    start = base = 0
    for stop, n_rel in zip(stops, rel_counts):
        if runs and runs[-1][3] == (n_rel > 0):
            runs[-1][1] = stop
        else:
            runs.append([start, stop, base, n_rel > 0])
        start, base = stop, base + n_rel
    ranks = [np.arange(s, min(e, k_max)) for s, e, _, rising in runs if rising and s < k_max]
    return ([(s, e, b - s if rising else b, rising)
             for s, e, b, rising in runs if s < n_max and (rising or b)],
            np.concatenate([np.arange(0), *ranks]))


@dataclass
class MetricsReport:
    """MAP@k plus P@N / R@N and radius-swept PR curves."""

    map_at: dict
    top_n: np.ndarray        # columns: N, precision, recall
    pr_radius: np.ndarray    # columns: radius, precision, recall
    n_queries: int
    n_database: int
    config_hash: str | None = None


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
    each pattern's first occurrence is ranked, from its row of distances
    to the distinct database codes.  A ranking lists the items by
    distance, ties by ascending index, so it is a run of distance
    buckets, nearest first.  Count-weighted bincounts give each bucket's
    items and relevant items; their running sums are the items and hits
    within every Hamming radius.  A pure row, where every bucket is all
    relevant or all irrelevant, is scored from its runs of alike buckets
    (`_pure_runs`) with no per-item array.  A row where one bucket mixes
    the two alone stable-argsorts its items by distance.  A row is kept
    for the pattern's later occurrences only, until its last.  Memory is
    O(block x distinct codes) for the code distances, plus O(n_db) per
    mixed row and the relevant ranks below the largest k per pure row.
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
    table = relevance_matrix(q_sets, db_sets, num_classes)
    r_totals = (table @ np.bincount(db_pid, minlength=len(db_sets)))[q_pid]
    n_q, n_db, k_bits = queries.n, database.n, queries.K
    n_max = n_db if max_n is None else min(int(max_n), n_db)
    ns = np.arange(1, n_max + 1, dtype=np.float64)

    groups = database.groups()
    # The database's (code, label set) patterns and their item counts
    # give the relevant items at each distance.
    pair_code, pair_set, pair_counts = code_patterns(database, db_pid)
    # A query's scored row depends only on its code words and its
    # distinct label set, its pattern.
    keys = np.column_stack([queries.words, q_pid.astype(np.uint64)])
    _, first, pattern, left = np.unique(
        keys, axis=0, return_index=True, return_inverse=True, return_counts=True
    )
    pattern = pattern.ravel()
    ranked = np.sort(first)

    rows = _code_distances(queries.take(ranked), database)
    cached = {}

    k_max = ks[-1] if ks else 0
    hits_at_1 = np.zeros(n_q)
    aps = {k: [] for k in ks}
    precision_sum = np.zeros(n_max)
    recall_sum = np.zeros(n_max)
    # Radius sweep: counts of retrieved / relevant-retrieved per query
    # at Hamming distance <= r, for r = 0..K.
    retrieved = np.zeros((n_q, k_bits + 1), dtype=np.int64)
    rel_retrieved = np.zeros((n_q, k_bits + 1), dtype=np.int64)
    for q in range(n_q):
        p = pattern[q]
        r_total = r_totals[q]
        if first[p] == q:
            dist_row = next(rows)
            # The ranking is sorted by distance: bucket r, the items at
            # distance r, follows every nearer bucket, and the items
            # within radius r are the first ends[r] ranked.
            size = np.bincount(dist_row, groups.counts, minlength=k_bits + 1)
            relc = np.bincount(dist_row.take(pair_code),
                               pair_counts * table[q_pid[q]].take(pair_set), minlength=k_bits + 1)
            ends = size.cumsum().astype(np.intp)
            if ((relc > 0) & (relc < size)).any():
                # A bucket mixes relevant and irrelevant items: rank the
                # items, ties by ascending index; c holds the row's hits.
                order = np.argsort(dist_row.take(groups.code_of), kind="stable")
                rel = table[q_pid[q]].take(db_pid.take(order))
                hits = np.cumsum(rel[:n_max], dtype=np.float64)
                runs, h1, ranks = [(0, n_max, hits, False)], hits[0], np.flatnonzero(rel[:k_max])
            else:
                stops, counts = ends[size > 0].tolist(), relc[size > 0].tolist()
                runs, ranks = _pure_runs(stops, counts, n_max, k_max)
                h1 = float(counts[0] > 0)
            ap_row = [_ap_at(ranks, k, int(r_total)) for k in ks] if r_total else []
            runs = [(precision_sum[s:e], recall_sum[s:e], ns[s:e], c, rising)
                    for s, e, c, rising in runs]
            row = runs, h1, ap_row, ends, relc.cumsum()
            if left[p] > 1:
                cached[p] = row
        else:
            row = cached[p]
        left[p] -= 1
        if not left[p]:
            cached.pop(p, None)
        runs, hits_at_1[q], ap_row, retrieved[q], rel_retrieved[q] = row
        # Each run adds the whole matrices' quotients hits / N and hits /
        # r_total to its views of the sums, which end at n_max; hits / N is
        # 1 exactly where hits = N.  Left-out runs' +0.0 would change no bit.
        for p_sum, r_sum, n, c, rising in runs:
            hits = (n + c if c else n) if rising else c
            p_sum += 1.0 if rising and not c else hits / n
            if r_total:
                r_sum += hits / r_total
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


def format_rows(row: str, table, sep: str = "") -> str:
    """The text of `sep.join(row % tuple(r) for r in table)`, made by one
    `%` per chunk of _CHUNK_ROWS rows against the template repeated, so
    no object is made per row."""
    table = np.asarray(table)
    chunks = np.split(table, range(_CHUNK_ROWS, len(table), _CHUNK_ROWS))
    return sep.join([sep.join([row] * len(c)) % tuple(c.ravel().tolist()) for c in chunks])


def write_metrics_csv(report: MetricsReport, out_dir) -> dict:
    """Write map.csv, prn.csv, pr.csv; returns the created paths.

    Floats are written with 17 significant digits, so they read back
    exactly.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tables = {
        "map": ("k,map\n", "%d,%.17g\n", sorted(report.map_at.items())),
        "prn": ("N,precision,recall\n", "%d,%.17g,%.17g\n", report.top_n),
        "pr": ("radius,precision,recall\n", "%d,%.17g,%.17g\n", report.pr_radius),
    }
    paths = {}
    for name, (head, line, rows) in tables.items():
        paths[name] = out / f"{name}.csv"
        paths[name].write_text(head + format_rows(line, rows), encoding="utf-8")
    return paths


# One indented report.json row per table row: its keys in sort_keys
# order, and the table columns that fill them.
_JSON_ROWS = {
    "top_n": ('    {\n      "n": %d,\n      "precision": %r,\n      "recall": %r\n    }', [0, 1, 2]),
    "pr_radius": ('    {\n      "precision": %r,\n      "radius": %d,\n      "recall": %r\n    }',
                  [1, 0, 2]),
}


def write_metrics_json(report: MetricsReport, path) -> None:
    """Write report.json indented and key-sorted, as every JSON artifact is.

    The header goes through json.dumps with a placeholder per row table,
    and the rows are formatted with float repr, as json formats finite
    floats.  json writes NaN and Infinity where repr gives nan and inf;
    neither string occurs in a row's keys (n, precision, recall, radius)
    or in the repr of a finite float, so they are replaced in the rows'
    text.
    """
    header = {
        "config_hash": report.config_hash,
        "n_queries": report.n_queries,
        "n_database": report.n_database,
        "map": {str(k): v for k, v in report.map_at.items()},
    }
    tables = {"top_n": report.top_n, "pr_radius": report.pr_radius}
    text = json.dumps({**header, **{k: "\0" + k for k in tables}}, indent=2, sort_keys=True)
    for key, table in tables.items():
        row, columns = _JSON_ROWS[key]
        body = format_rows(row, table[:, columns], ",\n")
        body = body.replace("nan", "NaN").replace("inf", "Infinity")
        text = text.replace(json.dumps("\0" + key), f"[\n{body}\n  ]" if body else "[]", 1)
    Path(path).write_text(text + "\n", encoding="utf-8")
