"""Independent reference computations used by several test modules."""

import math
import struct
from pathlib import Path

import numpy as np

from fisherhash.binary_codes import hamming_cross
from fisherhash.datasets import label_matrix, write_json
from fisherhash.evaluation import MetricsReport, RankedResult, relevance_matrix
from fisherhash.exceptions import DataError
from fisherhash.pairwise import loss_dissimilar, loss_similar


def enumerate_codes(k):
    """All 2^k sign vectors; enumeration bit j = 0 encodes +1.

    With this layout the first index attaining a minimum prefers +1 at
    every tied coordinate, matching the sgn(0) = +1 convention.
    """
    idx = np.arange(2**k, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(k)[None, :]) & 1
    return (1 - 2 * bits).astype(np.float64)


def brute_force_code(u_col, cy_col, mu):
    """Exhaustive minimizer of mu*||b - Cy||^2 + ||b - u||^2 per item.

    The cost is combined per coordinate before summation so that a
    coordinate whose two sign choices cost the same contributes an
    identical float either way, keeping ties exact.
    """
    codes = enumerate_codes(len(u_col))
    per_coord = mu * (codes - cy_col) ** 2 + (codes - u_col) ** 2
    obj = per_coord.sum(axis=1)
    return codes[np.argmin(obj)], obj.min()


def brute_force_codes(u, c_dense, y, mu):
    """Column-by-column exhaustive minimizer for a whole instance."""
    cy = c_dense @ y
    out = np.empty_like(u)
    for i in range(u.shape[1]):
        out[:, i], _ = brute_force_code(u[:, i], cy[:, i], mu)
    return out


def reference_update_centers(v, b_dense, y, a, mu, nu, eta, lr, steps):
    """update_centers as it was before its Gram form: every step
    recomputes the center-pull term 2 mu (V Y - B) Y^T over all N items."""
    v = np.array(v, dtype=np.float64)
    k, m = v.shape
    mu, nu = mu / b_dense.shape[1], nu / (k * m)
    for _ in range(steps):
        v -= lr * (
            2.0 * mu * (v @ y - b_dense) @ y.T
            + 4.0 * nu * v @ (v.T @ v - a)
            + 2.0 * eta * (v - np.where(v >= 0.0, 1.0, -1.0))
        )
    return v


def stable_sigmoid(x):
    """Logistic function, evaluated on the stable branch per sign."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _pair_dissimilarities(u, pairs):
    return -0.5 * np.einsum("kp,kp->p", u[:, pairs[:, 0]], u[:, pairs[:, 1]])


def per_pair_objective(u, b_dense, pairs, m, psi):
    """Pair losses gathered pair by pair, plus psi * ||u - b||^2."""
    total = psi * float(((u - b_dense) ** 2).sum())
    if len(pairs.similar):
        total += float(loss_similar(_pair_dissimilarities(u, pairs.similar), m).sum())
    if len(pairs.dissimilar):
        total += float(loss_dissimilar(_pair_dissimilarities(u, pairs.dissimilar), m).sum())
    return total


def per_pair_gradient(u, b_dense, pairs, m, psi):
    """Gradient of per_pair_objective, scattered pair by pair with np.add.at."""
    grad_t = 2.0 * psi * (u - b_dense).T.copy()
    ut = u.T
    for idx, sign in ((pairs.similar, 1.0), (pairs.dissimilar, -1.0)):
        if len(idx):
            ii, jj = idx[:, 0], idx[:, 1]
            coef = -0.5 * sign * stable_sigmoid(sign * _pair_dissimilarities(u, idx) + m)
            np.add.at(grad_t, ii, coef[:, None] * ut[jj])
            np.add.at(grad_t, jj, coef[:, None] * ut[ii])
    return grad_t.T.copy()


def reference_pair_loss_full(u, label_sets, margin, block=256):
    """The blocked full-data pair loss as it was before it became loss-only.

    Per upper-triangle block it builds a +-1 pair-sign matrix from a
    boolean label indicator (zeroed on and below the diagonal of a
    diagonal block) and sums softplus(s*d + m) * |s|.
    """
    n = u.shape[1]
    classes = sorted({c for labels in label_sets for c in labels})
    ind = np.array([[c in labels for c in classes] for labels in label_sets])
    total = 0.0
    for bi in range(0, n, block):
        ei = min(bi + block, n)
        for bj in range(bi, n, block):
            ej = min(bj + block, n)
            d = -0.5 * (u[:, bi:ei].T @ u[:, bj:ej])
            if not np.isfinite(d).all():
                raise ValueError("loss inputs must be finite")
            s = np.where(ind[bi:ei] @ ind[bj:ej].T, 1.0, -1.0)
            if bi == bj:
                s = np.triu(s, 1)
            z = s * d + margin
            total += float(((np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))) * np.abs(s)).sum())
    return total


def reference_code_pair_loss(b, set_of, meet, margin):
    """code_pair_loss as it was before it counted (code, label set) patterns.

    It builds the dense (distinct code x label set) item-count matrix C
    and counts, per Hamming distance h between the distinct codes, all
    pairs from the code counts and the similar pairs from C meet C',
    in one block of every code.
    """
    groups = b.groups()
    n_codes, n_sets = groups.codes.n, len(meet)
    c = np.bincount(groups.code_of * n_sets + set_of, minlength=n_codes * n_sets)
    c = c.reshape(n_codes, n_sets).astype(np.float64)
    counts = groups.counts.astype(np.float64)
    meet_f = meet.astype(np.float64)
    h = hamming_cross(groups.codes, groups.codes).ravel()
    every = np.bincount(h, np.outer(counts, counts).ravel(), b.K + 1)
    similar = np.bincount(h, (c @ meet_f @ c.T).ravel(), b.K + 1)
    every[0] -= b.n
    similar[0] -= meet.diagonal()[set_of].sum()
    d = np.arange(b.K + 1) - b.K / 2
    return 0.5 * float(similar @ loss_similar(d, margin) + (every - similar) @ loss_dissimilar(d, margin))


# ---------------------------------------------------------------------
# The two-path Hamming ranking that evaluation.py used before it became
# one blocked generator: an int64 distance matrix, a full stable argsort
# for metrics, and an argpartition shortcut for small-k search.  Block
# boundaries never changed its results, so it ranks all queries at once.


def reference_hamming_cross(a, b):
    """All-pairs Hamming distances as int64, through a 3-D XOR temporary."""
    if a.K != b.K:
        raise ValueError(f"code length mismatch: {a.K} vs {b.K}")
    diff = a.words[:, None, :] ^ b.words[None, :, :]
    return np.bitwise_count(diff).sum(axis=-1, dtype=np.int64)


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


def _ranked_distances(queries, database):
    """Full stable ranking per query: (order, sorted distances)."""
    dist = reference_hamming_cross(queries, database)
    order = np.argsort(dist, axis=1, kind="stable")
    return order, np.take_along_axis(dist, order, axis=1)


def _topk_row(dist, k):
    """Exact smallest-k of one distance row, ties by ascending index."""
    if k * 4 >= dist.size:
        order = np.argsort(dist, kind="stable")[:k]
        return order, dist[order]
    part = np.argpartition(dist, k - 1)[:k]
    # argpartition picks arbitrary members among boundary ties; gather
    # every candidate at or below the boundary, then rank stably so
    # equal distances fall back to ascending index.
    thresh = dist[part].max()
    cand = np.flatnonzero(dist <= thresh)
    order = cand[np.argsort(dist[cand], kind="stable")[:k]]
    return order, dist[order]


def reference_search(queries, database, k):
    """Exact top-k by Hamming distance, ties by ascending item index."""
    if not 1 <= k <= database.n:
        raise ValueError(f"k must be in [1, {database.n}], got {k}")
    dist = reference_hamming_cross(queries, database)
    return [
        RankedResult(query=q, indices=order, distances=dists)
        for q, (order, dists) in enumerate(_topk_row(row, k) for row in dist)
    ]


def reference_metrics_report(queries, database, query_label_sets, db_label_sets, ks,
                             num_classes=None, max_n=None):
    """MAP@k, P@N / R@N and the radius sweep from whole n_q x n_db matrices."""
    if len(query_label_sets) != queries.n or len(db_label_sets) != database.n:
        raise ValueError("label table sizes do not match code tables")
    ks = sorted(set(int(k) for k in ks))
    if ks and not 1 <= ks[0] <= ks[-1] <= database.n:
        raise ValueError(f"every k must be in [1, {database.n}], got {ks}")
    if num_classes is None:
        num_classes = 1 + max(max(s) for s in [*query_label_sets, *db_label_sets])
    rel = relevance_matrix(query_label_sets, db_label_sets, num_classes)
    r_totals = rel.sum(axis=1)
    order, dists = _ranked_distances(queries, database)
    rel_ranked = np.take_along_axis(rel, order, axis=1)

    has_rel = r_totals > 0
    n_q, n_db = queries.n, database.n
    cum_hits = np.cumsum(rel_ranked, axis=1, dtype=np.float64)

    map_at = {}
    for k in ks:
        aps = []
        for q in range(n_q):
            if has_rel[q]:
                aps.append(average_precision(rel_ranked[q, :k], int(r_totals[q])))
        map_at[k] = float(np.mean(aps)) if aps else 0.0

    n_max = n_db if max_n is None else min(int(max_n), n_db)
    ns = np.arange(1, n_max + 1, dtype=np.float64)
    precision_n = (cum_hits[:, :n_max] / ns).mean(axis=0)
    if has_rel.any():
        recall_n = (cum_hits[has_rel, :n_max] / r_totals[has_rel, None]).mean(axis=0)
    else:
        recall_n = np.zeros(n_max)
    top_n = np.column_stack([ns, precision_n, recall_n])

    k_bits = queries.K
    retrieved = np.zeros((n_q, k_bits + 1))
    rel_retrieved = np.zeros((n_q, k_bits + 1))
    for q in range(n_q):
        retrieved[q] = np.bincount(dists[q], minlength=k_bits + 1)
        rel_retrieved[q] = np.bincount(dists[q], weights=rel_ranked[q], minlength=k_bits + 1)
    retrieved = retrieved.cumsum(axis=1)
    rel_retrieved = rel_retrieved.cumsum(axis=1)
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
    )


# ---------------------------------------------------------------------
# The metric and results writers and the label parser as they were
# before they were tuned for speed: one formatted write per row,
# report.json through json.dumps of the whole report, and one int()
# parse per label line.


def _fmt(x):
    return format(float(x), ".17g")


def reference_write_metrics_csv(report, out_dir):
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


def reference_write_metrics_json(report, path):
    write_json(path, {
        "config_hash": report.config_hash,
        "n_queries": report.n_queries,
        "n_database": report.n_database,
        "map": {str(k): v for k, v in report.map_at.items()},
        "top_n": [
            {"n": int(n), "precision": p, "recall": r} for n, p, r in report.top_n
        ],
        "pr_radius": [
            {"radius": int(r), "precision": p, "recall": rc}
            for r, p, rc in report.pr_radius
        ],
    })


def reference_write_results_csv(results, path):
    """`fisherhash query`'s results.csv, one write per ranked item."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("query,rank,item,distance\n")
        for res in results:
            for rank, (item, dist) in enumerate(zip(res.indices, res.distances), 1):
                fh.write(f"{res.query},{rank},{item},{dist}\n")


def reference_load_labels(path, num_classes, n_items):
    """Parse a label file; returns (label matrix, per-item label sets)."""
    sets = [None] * n_items
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            head, _, rest = line.partition(":")
            try:
                idx = int(head)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad item index {head!r}") from exc
            if not 0 <= idx < n_items:
                raise DataError(f"{path}:{lineno}: item index {idx} out of range")
            if sets[idx] is not None:
                raise DataError(f"{path}:{lineno}: duplicate labels for item {idx}")
            classes = rest.split()
            if not classes:
                raise DataError(f"{path}:{lineno}: empty label row for item {idx}")
            try:
                labels = frozenset(int(c) for c in classes)
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: bad class id") from exc
            sets[idx] = labels
    missing = [i for i, s in enumerate(sets) if s is None]
    if missing:
        raise DataError(f"{path}: no labels for item {missing[0]}")
    return label_matrix(sets, num_classes), sets


def reference_decode_codes(data):
    """The K x N sign matrix an FHSH byte string describes, or None.

    Read with struct and Python ints, bit by bit: magic b"FHSH", then
    little-endian u32 version 1, K >= 1 and N >= 1, then exactly
    N * ceil(K/64) little-endian u64 words, item by item, bit j of word
    w being entry 64*w + j (1 <-> +1).  Padding bits are ignored.
    """
    if len(data) < 16 or data[:4] != b"FHSH":
        return None
    version, k, n = struct.unpack("<3I", data[4:16])
    w = (k + 63) // 64
    if version != 1 or k < 1 or n < 1 or len(data) != 16 + 8 * n * w:
        return None
    signs = np.empty((k, n), dtype=np.int8)
    for i in range(n):
        item = int.from_bytes(data[16 + 8 * w * i:16 + 8 * w * (i + 1)], "little")
        for j in range(k):
            signs[j, i] = 1 if item >> j & 1 else -1
    return signs


def reference_decode_features(data):
    """The dim x N float64 matrix an FHFT byte string describes, or None.

    Read with struct: magic b"FHFT", then little-endian u32 version 1,
    dim >= 1 and N >= 1, then exactly N * dim little-endian f32 values,
    item by item, every one finite.
    """
    if len(data) < 16 or data[:4] != b"FHFT":
        return None
    version, dim, n = struct.unpack("<3I", data[4:16])
    if version != 1 or dim < 1 or n < 1 or len(data) != 16 + 4 * dim * n:
        return None
    values = struct.unpack(f"<{dim * n}f", data[16:])
    if not all(math.isfinite(v) for v in values):
        return None
    return np.array(values, dtype=np.float64).reshape(n, dim).T


def reference_decode_checkpoint(data):
    """The (weights, biases, activations) an FHNN byte string describes, or None.

    Read with struct: magic b"FHNN", then little-endian u32 version 1,
    L >= 1 layers and input width >= 1; then L u32 pairs (output width
    >= 1, activation 0 identity, 1 relu or 2 tanh), the last activation
    identity; then per layer its out x in weights, row by row, and its
    out biases as little-endian f64, every one finite, and no byte more.
    """
    if len(data) < 16 or data[:4] != b"FHNN":
        return None
    version, layers, fan_in = struct.unpack("<3I", data[4:16])
    at = 16 + 8 * layers
    if version != 1 or layers < 1 or fan_in < 1 or len(data) < at:
        return None
    table = [struct.unpack("<2I", data[16 + 8 * i:24 + 8 * i]) for i in range(layers)]
    names = {0: "identity", 1: "relu", 2: "tanh"}
    if any(out < 1 or act not in names for out, act in table) or table[-1][1] != 0:
        return None
    widths = [fan_in] + [out for out, _ in table]
    if len(data) != at + sum(8 * out * (inp + 1) for inp, out in zip(widths, widths[1:])):
        return None
    weights, biases = [], []
    for inp, out in zip(widths, widths[1:]):
        values = struct.unpack(f"<{out * (inp + 1)}d", data[at:at + 8 * out * (inp + 1)])
        if not all(math.isfinite(v) for v in values):
            return None
        weights.append(np.array(values[:out * inp]).reshape(out, inp))
        biases.append(np.array(values[out * inp:]))
        at += 8 * out * (inp + 1)
    return weights, biases, [names[act] for _, act in table]
