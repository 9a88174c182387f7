"""Bit-packed binary codes and Hamming/dissimilarity arithmetic.

Codes live in {-1,+1}^K.  A code table packs each item column into
ceil(K/64) machine words so that Hamming distances reduce to XOR plus
popcount.  All other modules build on the operations here.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .datasets import read_binary, write_binary
from .exceptions import DataError

WORD_BITS = 64
CODE_MAGIC = b"FHSH"
CODE_VERSION = 1


def _num_words(k: int) -> int:
    return (k + WORD_BITS - 1) // WORD_BITS


def _pack_bool(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean (n, K) array into (n, W) uint64, True <-> +1.

    Padding bits are forced to 1 (the +1 convention) so identically
    padded columns never differ beyond bit K-1.
    """
    n, k = bits.shape
    w = _num_words(k)
    padded = np.ones((n, w * WORD_BITS), dtype=np.uint8)
    padded[:, :k] = bits
    packed = np.packbits(padded, axis=-1, bitorder="little")
    return np.ascontiguousarray(packed).view(np.uint64)


class CodeGroups(NamedTuple):
    """A code table's items grouped by code.

    `codes` holds the distinct codes in np.unique(axis=0) order; item i
    has code `code_of[i]`; code c has `counts[c]` items, listed in
    ascending index order at items[starts[c] : starts[c] + counts[c]].
    """

    codes: "BinaryCodeMatrix"
    code_of: np.ndarray
    counts: np.ndarray
    starts: np.ndarray
    items: np.ndarray


def code_patterns(b: "BinaryCodeMatrix", set_of: np.ndarray) -> tuple[np.ndarray, ...]:
    """b's distinct (code, label set) patterns, by code then set: each one's code, an index into
    b.groups().codes, its set id from set_of, its item count and first item; and each item's pattern."""
    n_sets = int(set_of.max()) + 1
    keys, first, pattern, counts = np.unique(b.groups().code_of * n_sets + set_of, return_index=True,
                                             return_inverse=True, return_counts=True)
    code, label_set = np.divmod(keys, n_sets)
    return code, label_set, counts, first, pattern


class BinaryCodeMatrix:
    """K x N matrix with entries in {-1,+1}, stored bit-packed.

    Column i is the K-bit code of item i, held as a contiguous run of
    uint64 words (bit j of word w is logical entry 64*w + j, bit value
    1 meaning +1).  Instances are immutable after construction and safe
    for concurrent reads, so the grouping of items by code is computed
    once, on first use, and kept.
    """

    __slots__ = ("K", "words", "_groups")

    def __init__(self, K: int, words: np.ndarray):
        if K < 1:
            raise ValueError(f"code length must be >= 1, got {K}")
        words = np.asarray(words, dtype=np.uint64)
        if words.ndim != 2 or words.shape[1] != _num_words(K):
            raise ValueError(
                f"expected words of shape (N, {_num_words(K)}) for K={K}, "
                f"got {words.shape}"
            )
        if words.shape[0] < 1:
            raise ValueError("code matrix needs at least one column")
        tail = K % WORD_BITS
        if tail:
            # Normalize padding to the canonical +1 fill so distance
            # arithmetic stays exact even for externally written tables.
            pad = np.uint64(0xFFFFFFFFFFFFFFFF) << np.uint64(tail)
            if ((words[:, -1] & pad) != pad).any():
                words = words.copy()
                words[:, -1] |= pad
        self.K = K
        self.words = words
        self.words.setflags(write=False)
        self._groups = None

    @property
    def n(self) -> int:
        """Number of columns (items)."""
        return self.words.shape[0]

    @classmethod
    def from_values(cls, values: np.ndarray) -> "BinaryCodeMatrix":
        """Sign-quantize a real K x N matrix (K vector means N=1).

        Entry (j, i) becomes +1 when values[j, i] >= 0, else -1; the
        sign of an exact zero is +1 by the package-wide convention.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError(f"expected a K x N matrix, got shape {values.shape}")
        if not np.isfinite(values).all():
            bad = np.argwhere(~np.isfinite(values))[0]
            raise ValueError(
                f"non-finite value at (bit {bad[0]}, item {bad[1]}); "
                "codes require finite inputs"
            )
        return cls(values.shape[0], _pack_bool((values >= 0).T))

    @classmethod
    def from_signs(cls, signs: np.ndarray) -> "BinaryCodeMatrix":
        """Pack a matrix whose entries are exactly -1 or +1."""
        signs = np.asarray(signs)
        if signs.ndim == 1:
            signs = signs[:, None]
        if not np.isin(signs, (-1, 1)).all():
            raise ValueError("entries must all be -1 or +1")
        return cls.from_values(signs.astype(np.float64))

    def dense(self, dtype=np.int8) -> np.ndarray:
        """Unpack to a K x N array of -1/+1 entries."""
        byte_view = np.ascontiguousarray(self.words).view(np.uint8)
        bits = np.unpackbits(byte_view, axis=-1, count=self.K, bitorder="little").view(np.int8)
        # F-ordered K x N, the layout whose bits callers' BLAS products were fixed on.
        return (bits * 2 - 1).T.astype(dtype)

    def groups(self) -> CodeGroups:
        """The items grouped by code; computed on the first call, then cached.

        One stable lexsort over the word columns, first word most
        significant, orders the items by code as np.unique does and keeps
        ascending index order within each code.  `take` and `column`
        return new tables, so the cache never goes stale.
        """
        if self._groups is None:
            items = np.lexsort(self.words.T[::-1])
            grouped = self.words[items]
            first = np.ones(self.n, dtype=bool)
            np.any(grouped[1:] != grouped[:-1], axis=1, out=first[1:])
            starts = np.flatnonzero(first)
            code_of = np.empty(self.n, dtype=np.intp)
            code_of[items] = np.cumsum(first) - 1
            self._groups = CodeGroups(
                BinaryCodeMatrix(self.K, grouped[starts]), code_of,
                np.diff(starts, append=self.n), starts, items,
            )
        return self._groups

    def column(self, i: int) -> "BinaryCodeMatrix":
        """Single column i as a K x 1 code matrix (shares storage)."""
        return BinaryCodeMatrix(self.K, self.words[i : i + 1])

    def take(self, indices) -> "BinaryCodeMatrix":
        """Select columns by index (copy)."""
        return BinaryCodeMatrix(self.K, self.words[np.asarray(indices)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, BinaryCodeMatrix):
            return NotImplemented
        return self.K == other.K and np.array_equal(self.words, other.words)

    def __repr__(self) -> str:
        return f"BinaryCodeMatrix(K={self.K}, n={self.n})"

    def save(self, path) -> None:
        """Write the code table: FHSH header (K, N) then per-item LE words."""
        write_binary(path, CODE_MAGIC, CODE_VERSION, self.K, self.n,
                     self.words.astype("<u8").tobytes())

    @classmethod
    def load(cls, path) -> "BinaryCodeMatrix":
        """Read a table written by `save`; a malformed file is a DataError.

        The header's sizes are checked against the payload read from the
        file before anything is allocated from them.
        """
        k, n, payload = read_binary(path, CODE_MAGIC, CODE_VERSION, "code table")
        if k < 1 or n < 1:
            raise DataError(f"{path}: header claims K={k}, N={n}; both must be >= 1")
        w = _num_words(k)
        expected = n * w * 8
        if len(payload) != expected:
            raise DataError(
                f"{path}: expected {expected} payload bytes for K={k}, N={n}, "
                f"got {len(payload)}"
            )
        words = np.frombuffer(payload, dtype="<u8").astype(np.uint64).reshape(n, w)
        return cls(k, words)


def pack(column) -> BinaryCodeMatrix:
    """Sign-quantize one K-vector of reals into a packed code column."""
    values = np.asarray(column, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"expected a 1-D column, got shape {values.shape}")
    return BinaryCodeMatrix.from_values(values)


def unpack(code: BinaryCodeMatrix) -> np.ndarray:
    """Inverse of pack for a single-column code: the K-vector of signs."""
    if code.n != 1:
        raise ValueError(f"unpack expects a single column, got {code.n}")
    return code.dense()[:, 0]


def dense_signs(b) -> np.ndarray:
    """A code table, or an array of -1/+1 entries, as a K x N float64 array."""
    return b.dense(np.float64) if isinstance(b, BinaryCodeMatrix) else np.asarray(b, dtype=np.float64)


def hamming_cross(a: BinaryCodeMatrix, b: BinaryCodeMatrix) -> np.ndarray:
    """All-pairs Hamming distances, shape (a.n, b.n), via XOR popcount.

    The dtype is the smallest unsigned integer that holds K (uint8 for
    K <= 255, uint16 above), which lets numpy radix-sort the distances.
    Widen before doing arithmetic that can leave [0, K].
    """
    if a.K != b.K:
        raise ValueError(f"code length mismatch: {a.K} vs {b.K}")
    dist = np.zeros((a.n, b.n), dtype=np.min_scalar_type(a.K))
    for w in range(a.words.shape[1]):
        dist += np.bitwise_count(a.words[:, None, w] ^ b.words[None, :, w])
    return dist


def hamming_distance(a: BinaryCodeMatrix, b: BinaryCodeMatrix) -> int:
    """Number of differing bits between two single-column codes.

    Equals (K - <a, b>)/2 and one quarter of the squared Euclidean
    distance between the +-1 vectors.
    """
    if a.n != 1 or b.n != 1:
        raise ValueError("hamming_distance expects single-column codes")
    return int(hamming_cross(a, b)[0, 0])


def dissimilarity(a, b) -> float:
    """-1/2 <a, b>: monotone increasing in Hamming distance for codes.

    Accepts two single-column packed codes or two real 1-D vectors of
    equal length.
    """
    if isinstance(a, BinaryCodeMatrix) and isinstance(b, BinaryCodeMatrix):
        if a.n != 1 or b.n != 1:
            raise ValueError("dissimilarity expects single columns")
        ip = float(a.K - 2 * hamming_distance(a, b))
        return -0.5 * ip
    if isinstance(a, BinaryCodeMatrix) or isinstance(b, BinaryCodeMatrix):
        raise TypeError("mixed packed/real inputs are not supported")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(-0.5 * (a @ b))
