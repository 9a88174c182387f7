"""Margin logistic loss over pairs of continuous representations.

Similar pairs are pushed toward dissimilarity -K/2 (all bits agree) and
dissimilar pairs toward +K/2 through a symmetric logistic loss shifted
by a margin m:

    loss_similar(D)    = log(1 + exp(D + m))
    loss_dissimilar(D) = log(1 + exp(-D + m))

with D(u_i, u_j) = -1/2 <u_i, u_j>.  Over a whole batch both are one
formula on the Gram matrix D = -1/2 U'U and a pair-sign matrix S (+1
similar, -1 dissimilar, 0 not a pair): the loss is the sum of
softplus(S*D + m) over the nonzero entries of S, and for symmetric S the
gradient in U is U @ (-1/2 S * sigma(S*D + m)).  A weighted squared
discrepancy psi * sum_i ||u_i - b_i||^2 ties the continuous columns to
their binary codes.  m = 0 recovers the plain pairwise logistic loss.

Over all pairs of a data set, pair_loss_full sums the loss on continuous
columns in Gram blocks, and code_pair_loss sums it on binary codes,
where D = h - K/2 takes only the K + 1 values of the Hamming distance h,
so the pairs are counted per h rather than scored one by one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .binary_codes import BinaryCodeMatrix, code_patterns, dense_signs, hamming_cross

# Upper bound on code_pair_loss's block of pattern pairs, in entries.  Each
# block also holds an intp key and a float64 count product of the same
# size, so this keeps the scratch at a few MB where the patterns are many.
_BLOCK_ENTRIES = 250_000

# Side of pair_loss_full's square Gram blocks: each float64 temporary is
# 128 KB, and a block's few of them stay in L2.
_GRAM_BLOCK = 128


def softplus(x):
    """log(1 + exp(x)) without overflow for large |x|."""
    out = _softplus_inplace(np.array(x, dtype=np.float64))
    return out if out.ndim else float(out)


def _softplus_inplace(z: np.ndarray) -> np.ndarray:
    """Overwrite z with max(z, 0) + log1p(exp(-|z|)) and return it."""
    e = np.abs(z, out=np.empty_like(z))  # out= keeps a 0-d z an array
    np.negative(e, out=e)
    np.exp(e, out=e)
    np.log1p(e, out=e)
    np.maximum(z, 0.0, out=z)
    z += e
    return z


def loss_similar(d, m):
    """Loss for a same-class pair at dissimilarity d, margin m."""
    _check_finite(d, m)
    return softplus(np.asarray(d, dtype=np.float64) + m)


def loss_dissimilar(d, m):
    """Loss for a different-class pair; mirror of loss_similar in d."""
    _check_finite(d, m)
    return softplus(-np.asarray(d, dtype=np.float64) + m)


def _check_finite(d, m):
    if not np.isfinite(d).all() or not np.isfinite(m):
        raise ValueError("loss inputs must be finite")


@dataclass(frozen=True)
class MarginParams:
    """Margin m >= 0 and discrepancy weight psi >= 0.

    Only the ratio between the pair losses and the psi term matters for
    the optimum; the trainer keeps the discrepancy weight at 1 and
    scales the pair block instead (see training.HyperParams.phi).
    """

    m: float = 1.0
    psi: float = 1.0

    def __post_init__(self):
        if self.m < 0:
            raise ValueError(f"margin must be >= 0, got {self.m}")
        if self.psi < 0:
            raise ValueError(f"psi must be >= 0, got {self.psi}")


@dataclass(frozen=True)
class PairSets:
    """Index pairs (i, j) with i < j, split into similar and dissimilar.

    The two sets are disjoint and contain no self-pairs; indices refer
    to columns of the representation matrix being scored.
    """

    similar: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))
    dissimilar: np.ndarray = field(default_factory=lambda: np.empty((0, 2), dtype=np.int64))

    def __post_init__(self):
        object.__setattr__(self, "similar", _as_pairs(self.similar))
        object.__setattr__(self, "dissimilar", _as_pairs(self.dissimilar))
        sim = set(map(tuple, self.similar))
        dis = set(map(tuple, self.dissimilar))
        if len(sim) != len(self.similar) or len(dis) != len(self.dissimilar):
            raise ValueError("duplicate pairs")
        if sim & dis:
            raise ValueError(f"pairs in both sets: {sorted(sim & dis)[:3]}")

    def validate_against(self, n: int) -> None:
        for name, pairs in (("similar", self.similar), ("dissimilar", self.dissimilar)):
            if pairs.size and pairs.max() >= n:
                raise ValueError(f"{name} pair index {pairs.max()} out of range for N={n}")

    @property
    def count(self) -> int:
        return len(self.similar) + len(self.dissimilar)

    @classmethod
    def all_pairs_from_label_sets(cls, label_sets) -> "PairSets":
        """Every unordered pair, similar iff the items share a label."""
        n = len(label_sets)
        sim, dis = [], []
        for i in range(n):
            li = label_sets[i]
            for j in range(i + 1, n):
                (sim if li & label_sets[j] else dis).append((i, j))
        return cls(np.asarray(sim, dtype=np.int64).reshape(-1, 2),
                   np.asarray(dis, dtype=np.int64).reshape(-1, 2))


def _as_pairs(pairs) -> np.ndarray:
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if pairs.size:
        if (pairs < 0).any():
            raise ValueError("negative pair index")
        if (pairs[:, 0] >= pairs[:, 1]).any():
            bad = pairs[pairs[:, 0] >= pairs[:, 1]][0]
            raise ValueError(f"pairs must satisfy i < j, got {tuple(bad)}")
    pairs.setflags(write=False)
    return pairs


def sign_matrix(pairs: PairSets, n: int) -> np.ndarray:
    """Symmetric N x N pair-sign matrix of PairSets.

    +1 marks a similar pair, -1 a dissimilar pair and 0 no pair,
    including the diagonal.
    """
    pairs.validate_against(n)
    s = np.zeros((n, n))
    s[pairs.similar[:, 0], pairs.similar[:, 1]] = 1.0
    s[pairs.similar[:, 1], pairs.similar[:, 0]] = 1.0
    s[pairs.dissimilar[:, 0], pairs.dissimilar[:, 1]] = -1.0
    s[pairs.dissimilar[:, 1], pairs.dissimilar[:, 0]] = -1.0
    return s


def _pair_coef(d: np.ndarray, s: np.ndarray, m: float) -> np.ndarray:
    """Gradient coefficients -1/2 s * sigma(s*d + m) of the pairs marked in s.

    d holds dissimilarities -1/2 <u_i, u_j> and s the matching signs;
    sigma takes the stable branch per sign of its argument.
    """
    z = s * d
    z += m
    e = np.abs(z)
    np.exp(np.negative(e, out=e), out=e)
    coef = -0.5 * s
    coef *= np.where(z >= 0, 1.0, e)
    coef /= np.add(e, 1.0, out=e)
    return coef


def _pair_inputs(u, b, pairs: PairSets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u and the codes b as K x N float arrays, and the sign matrix of pairs."""
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 2:
        raise ValueError(f"expected K x N representations, got shape {u.shape}")
    bd = dense_signs(b)
    if bd.shape != u.shape:
        raise ValueError(f"code matrix shape {bd.shape} does not match {u.shape}")
    return u, bd, sign_matrix(pairs, u.shape[1])


def pair_objective(u: np.ndarray, b, pairs: PairSets, params: MarginParams) -> float:
    """Sum of pair losses on u over pairs plus psi * sum_i ||u_i - b_i||^2."""
    u, bd, s = _pair_inputs(u, b, pairs)
    s = np.triu(s, 1)
    d = -0.5 * (u.T @ u)
    _check_finite(d, params.m)
    loss = float((_softplus_inplace(s * d + params.m) * np.abs(s)).sum())
    return params.psi * float(((u - bd) ** 2).sum()) + loss


def pair_gradient(u: np.ndarray, b, pairs: PairSets, params: MarginParams) -> np.ndarray:
    """Gradient of pair_objective with respect to u, shaped like u.

    A similar pair (i, j) contributes -1/2 sigma(D_ij + m) u_j to
    column i (and symmetrically to column j); a dissimilar pair
    contributes +1/2 sigma(-D_ij + m) u_j.  The discrepancy term adds
    2 psi (u_i - b_i) per column.
    """
    u, bd, s = _pair_inputs(u, b, pairs)
    coef = _pair_coef(-0.5 * (u.T @ u), s, params.m)
    return 2.0 * params.psi * (u - bd) + u @ coef


def pair_loss_full(u: np.ndarray, set_of: np.ndarray, meet: np.ndarray, margin: float) -> float:
    """Sum of pair losses over all unordered pairs of the columns of u, in
    upper-triangle Gram blocks, without materializing the pair sets.

    set_of and meet are as in code_pair_loss.  Only the loss is
    computed.  The Gram entries are scaled by -1/2 where the two items'
    label sets meet and +1/2 where they do not, one row block at a time.
    The signed dissimilarities are shifted by the margin and passed
    through softplus in place.  No Gram entry exceeds the larger squared
    norm of its two items, so the inputs are checked once, on those
    norms.
    """
    scale = np.where(meet, -0.5, 0.5)
    ut = np.ascontiguousarray(u.T)
    _check_finite(np.einsum("ij,ij->i", ut, ut), margin)
    n, block = len(set_of), _GRAM_BLOCK
    total = 0.0
    for bi in range(0, n, block):
        row_scale = scale[set_of[bi:bi + block]]
        for bj in range(bi, n, block):
            z = ut[bi:bi + block] @ ut[bj:bj + block].T
            z *= row_scale[:, set_of[bj:bj + block]]
            z += margin
            _softplus_inplace(z)
            total += float((np.triu(z, 1) if bi == bj else z).sum())
    return total


def code_pair_loss(b: BinaryCodeMatrix, set_of: np.ndarray, meet: np.ndarray, margin: float) -> float:
    """Sum of pair losses over all unordered pairs of the columns of the codes b.

    set_of[i] is item i's index into the distinct label sets and meet
    the table of which of them meet (datasets.relevance_matrix).  On
    codes D = -1/2 <b_i, b_j> = h - K/2 with h the Hamming distance, so
    a pair's loss depends only on h and on whether its label sets meet.
    The pairs are counted between the (code, label set) patterns
    (binary_codes.code_patterns), in row blocks of them: each pattern
    pair adds the product of its two item counts at key 2h + meet, so
    one bincount counts the pairs per h, similar or not.  The N
    self-pairs at h = 0 are taken out, and softplus is evaluated on the
    K + 1 values of D only.  All counts are exact integers.
    """
    code, label_set, counts, _, _ = code_patterns(b, set_of)
    patterns = b.groups().codes.take(code)
    weights = counts.astype(np.float64)
    keyed = np.zeros(2 * (b.K + 1))
    block = max(1, _BLOCK_ENTRIES // len(code))
    for start in range(0, len(code), block):
        rows = range(start, min(start + block, len(code)))
        key = np.multiply(hamming_cross(patterns.take(rows), patterns), 2, dtype=np.intp)
        key += meet[label_set[rows]].take(label_set, axis=1)
        keyed += np.bincount(key.ravel(), np.outer(weights[rows], weights).ravel(), len(keyed))
    keyed[:2] -= np.bincount(meet.diagonal()[set_of], minlength=2)  # the N self-pairs
    # Contiguous rows: a strided view would sum the dot products in another order.
    dissimilar, similar = keyed.reshape(-1, 2).T.copy()
    d = np.arange(b.K + 1) - b.K / 2
    return 0.5 * float(similar @ loss_similar(d, margin) + dissimilar @ loss_dissimilar(d, margin))
