import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisherhash import pairwise
from fisherhash.binary_codes import BinaryCodeMatrix, dense_signs
from fisherhash.datasets import distinct_label_sets, relevance_matrix
from fisherhash.pairwise import (
    MarginParams,
    PairSets,
    code_pair_loss,
    loss_dissimilar,
    loss_similar,
    pair_gradient,
    pair_loss_full,
    pair_objective,
    sign_matrix,
)

from oracles import (
    per_pair_gradient,
    per_pair_objective,
    reference_code_pair_loss,
    reference_pair_loss_full,
)

# Frozen via 40-digit evaluation (mpmath) of log(1 + exp(.)).
LOG2 = 0.6931471805599453
SP_1 = 1.3132616875182228
SP_4 = 4.0181499279178097
SP_NEG2 = 0.1269280110429725


def naive_objective(u, b_dense, pairs, params):
    """Scalar-by-scalar reference: plain loops, library log/exp."""
    total = 0.0
    for i, j in pairs.similar:
        d = -0.5 * float(u[:, i] @ u[:, j])
        total += math.log(1.0 + math.exp(d + params.m))
    for i, j in pairs.dissimilar:
        d = -0.5 * float(u[:, i] @ u[:, j])
        total += math.log(1.0 + math.exp(-d + params.m))
    for i in range(u.shape[1]):
        total += params.psi * float(((u[:, i] - b_dense[:, i]) ** 2).sum())
    return total


def fd_gradient(u, b, pairs, params, step=1e-5):
    grad = np.zeros_like(u)
    for k in range(u.shape[0]):
        for i in range(u.shape[1]):
            up, dn = u.copy(), u.copy()
            up[k, i] += step
            dn[k, i] -= step
            grad[k, i] = (
                pair_objective(up, b, pairs, params)
                - pair_objective(dn, b, pairs, params)
            ) / (2 * step)
    return grad


def random_instance(rng, k=5, n=8):
    u = rng.normal(size=(k, n))
    signs = rng.choice([-1, 1], size=(k, n))
    b = BinaryCodeMatrix.from_signs(signs)
    idx = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(idx)
    half = len(idx) // 2
    pairs = PairSets(np.array(idx[:half]), np.array(idx[half:]))
    return u, b, signs, pairs


class TestLossCurves:
    def test_origin_is_log_two(self):
        assert loss_similar(0.0, 0.0) == pytest.approx(LOG2, abs=1e-15)
        assert loss_dissimilar(0.0, 0.0) == pytest.approx(LOG2, abs=1e-15)

    def test_similar_with_margin_one(self):
        assert loss_similar(0.0, 1.0) == pytest.approx(SP_1, abs=1e-15)

    def test_dissimilar_mirrors_similar(self):
        assert loss_dissimilar(-3.0, 1.0) == loss_similar(3.0, 1.0)
        assert loss_similar(3.0, 1.0) == pytest.approx(SP_4, abs=1e-14)

    def test_no_overflow_at_large_dissimilarity(self):
        assert loss_similar(50.0, 0.0) == pytest.approx(50.0, abs=1e-9)
        assert np.isfinite(loss_similar(1e4, 0.0))
        assert np.isfinite(loss_dissimilar(-1e4, 2.0))

    def test_dissimilar_decays_to_zero(self):
        d = np.linspace(0, 40, 9)
        vals = loss_dissimilar(d, 0.0)
        assert (np.diff(vals) < 0).all()
        assert vals[-1] < 1e-15

    @given(
        st.floats(-30, 30),
        st.floats(0, 5),
        st.floats(0.01, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_margin_monotonicity(self, d, m, dm):
        assert loss_similar(d, m) == loss_dissimilar(-d, m)
        assert loss_similar(d, m + dm) > loss_similar(d, m)
        assert loss_dissimilar(d, m + dm) > loss_dissimilar(d, m)

    def test_zero_margin_is_plain_logistic(self):
        d = np.linspace(-6, 6, 25)
        np.testing.assert_allclose(loss_similar(d, 0.0), np.log1p(np.exp(d)), rtol=1e-15)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            loss_similar(np.nan, 0.0)
        with pytest.raises(ValueError):
            loss_dissimilar(0.0, np.inf)


class TestMarginParams:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MarginParams(m=-0.5)
        with pytest.raises(ValueError):
            MarginParams(psi=-1.0)


class TestPairSets:
    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="both sets"):
            PairSets(np.array([[0, 1]]), np.array([[0, 1]]))

    def test_rejects_self_pair(self):
        with pytest.raises(ValueError, match="i < j"):
            PairSets(np.array([[2, 2]]), np.empty((0, 2), dtype=int))

    def test_rejects_out_of_range_index(self):
        pairs = PairSets(np.array([[0, 9]]), np.empty((0, 2), dtype=int))
        with pytest.raises(ValueError, match="out of range"):
            pairs.validate_against(4)

    def test_from_label_sets(self):
        sets = [frozenset({0}), frozenset({0, 1}), frozenset({2})]
        pairs = PairSets.all_pairs_from_label_sets(sets)
        assert pairs.similar.tolist() == [[0, 1]]
        assert pairs.dissimilar.tolist() == [[0, 2], [1, 2]]


class TestPairObjective:
    def test_single_similar_pair_identical_binary_columns(self):
        signs = np.ones((4, 2))
        b = BinaryCodeMatrix.from_signs(signs)
        pairs = PairSets(similar=np.array([[0, 1]]))
        # D = -K/2 = -2 and the discrepancy term vanishes.
        got = pair_objective(signs.astype(float), b, pairs, MarginParams(m=0.0, psi=3.7))
        assert got == pytest.approx(SP_NEG2, abs=1e-15)

    def test_empty_pairs_zero_discrepancy(self):
        signs = np.ones((3, 4))
        b = BinaryCodeMatrix.from_signs(signs)
        assert pair_objective(signs.astype(float), b, PairSets(), MarginParams()) == 0.0

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(123)
        for _ in range(5):
            u, b, signs, pairs = random_instance(rng)
            params = MarginParams(m=rng.uniform(0, 2), psi=rng.uniform(0, 2))
            got = pair_objective(u, b, pairs, params)
            want = naive_objective(u, signs, pairs, params)
            assert got == pytest.approx(want, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        b = BinaryCodeMatrix.from_signs(np.ones((3, 4)))
        with pytest.raises(ValueError):
            pair_objective(np.ones((4, 4)), b, PairSets(), MarginParams())


class TestPairGradient:
    def test_quadratic_term_only(self):
        rng = np.random.default_rng(5)
        signs = rng.choice([-1, 1], size=(4, 6))
        b = BinaryCodeMatrix.from_signs(signs)
        u = signs + rng.normal(size=signs.shape)
        grad = pair_gradient(u, b, PairSets(), MarginParams(m=0.0, psi=1.0))
        np.testing.assert_allclose(grad, 2.0 * (u - signs), atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(99)
        for _ in range(3):
            u, b, _, pairs = random_instance(rng)
            params = MarginParams(m=rng.uniform(0, 2), psi=rng.uniform(0, 2))
            analytic = pair_gradient(u, b, pairs, params)
            numeric = fd_gradient(u, b, pairs, params)
            denom = np.maximum(np.abs(numeric), 1.0)
            assert (np.abs(analytic - numeric) / denom).max() < 1e-4

    def test_zero_columns_leave_only_psi_term(self):
        u = np.zeros((3, 2))
        signs = np.ones((3, 2))
        b = BinaryCodeMatrix.from_signs(signs)
        pairs = PairSets(similar=np.array([[0, 1]]))
        grad = pair_gradient(u, b, pairs, MarginParams(m=1.0, psi=0.5))
        np.testing.assert_allclose(grad, 2 * 0.5 * (u - signs), atol=1e-15)


class TestSignMatrix:
    def test_from_pair_sets_is_symmetric(self):
        pairs = PairSets(np.array([[0, 2]]), np.array([[1, 2]]))
        np.testing.assert_array_equal(
            sign_matrix(pairs, 4),
            [[0, 0, 1, 0], [0, 0, -1, 0], [1, -1, 0, 0], [0, 0, 0, 0]],
        )


@st.composite
def pair_instances(draw):
    """Random K, n <= 40, multi-label sets, a random subset of their pairs,
    and a block size that does or does not divide n."""
    k = draw(st.integers(1, 8))
    n = draw(st.integers(2, 40))
    classes = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    label_sets = [
        frozenset(int(c) for c in rng.choice(classes, size=rng.integers(1, min(3, classes) + 1),
                                              replace=False))
        for _ in range(n)
    ]
    every = PairSets.all_pairs_from_label_sets(label_sets)
    keep = draw(st.floats(0.0, 1.0))
    pairs = PairSets(every.similar[rng.random(len(every.similar)) < keep],
                     every.dissimilar[rng.random(len(every.dissimilar)) < keep])
    u = rng.normal(scale=draw(st.sampled_from([0.1, 1.0, 3.0])), size=(k, n))
    signs = rng.choice([-1.0, 1.0], size=(k, n))
    params = MarginParams(m=draw(st.floats(0.0, 3.0)), psi=draw(st.floats(0.0, 2.0)))
    divisors = [size for size in range(1, n + 1) if n % size == 0]
    others = [size for size in range(2, n + 3) if n % size]
    block = draw(st.sampled_from(divisors if draw(st.booleans()) else others))
    return u, signs, label_sets, every, pairs, params, block


class TestKernelAgainstPerPairOracle:
    @given(pair_instances())
    @settings(max_examples=80, deadline=None)
    def test_objective_gradient_and_full_loss(self, instance):
        u, signs, label_sets, every, pairs, params, block = instance
        b = BinaryCodeMatrix.from_signs(signs)
        want = per_pair_objective(u, signs, pairs, params.m, params.psi)
        assert pair_objective(u, b, pairs, params) == pytest.approx(want, rel=1e-12, abs=1e-12)
        want_grad = per_pair_gradient(u, signs, pairs, params.m, params.psi)
        got_grad = pair_gradient(u, b, pairs, params)
        np.testing.assert_allclose(got_grad, want_grad, rtol=1e-12, atol=1e-11)
        want_full = per_pair_objective(u, signs, every, params.m, 0.0)
        with mock.patch.object(pairwise, "_GRAM_BLOCK", block):
            got_full = _full_loss(u, label_sets, params.m)
        assert got_full == pytest.approx(want_full, rel=1e-12, abs=1e-12)


@st.composite
def full_loss_instances(draw):
    """n <= 600 items, K in {1, 12, 32, 64}, single- or multi-label sets
    with labels up to 300 in sorted or shuffled item order, a contiguous,
    Fortran-ordered or strided u, and a block size that does or does not
    divide n (at most 40 blocks per side)."""
    n = draw(st.integers(2, 600))
    k = draw(st.sampled_from([1, 12, 32, 64]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = rng.choice(300, size=draw(st.integers(1, 12)), replace=False)
    per_item = draw(st.integers(1, min(3, len(pool))))
    label_sets = [frozenset(int(c) for c in rng.choice(pool, size=rng.integers(1, per_item + 1),
                                                        replace=False))
                  for _ in range(n)]
    if draw(st.booleans()):
        label_sets.sort(key=min)
    scale = draw(st.sampled_from([0.1, 1.0, 3.0]))
    layout = draw(st.sampled_from(["C", "F", "strided"]))
    if layout == "strided":
        u = rng.normal(scale=scale, size=(2 * k, 2 * n + 1))[::2, 1::2]
    else:
        u = np.asarray(rng.normal(scale=scale, size=(k, n)), order=layout)
    lo = -(-n // 40)
    divisors = [size for size in range(lo, n + 1) if n % size == 0]
    others = [size for size in range(lo, n + 3) if n % size]
    block = draw(st.sampled_from(divisors if draw(st.booleans()) else others))
    return u, label_sets, draw(st.floats(0.0, 3.0)), block


class TestFullLossAgainstBlockedOracle:
    @given(full_loss_instances())
    @settings(max_examples=60, deadline=None)
    def test_matches_sign_matrix_version(self, instance):
        u, label_sets, m, block = instance
        want = reference_pair_loss_full(u, label_sets, m, block=block)
        with mock.patch.object(pairwise, "_GRAM_BLOCK", block):
            assert _full_loss(u, label_sets, m) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("bad", [np.nan, 1e200], ids=["nan", "gram_overflow"])
    def test_non_finite_rejected_in_ragged_last_block(self, bad):
        # 10 items in blocks of 4: the bad column 9 lies in the ragged
        # last block, and 1e200 overflows only its own Gram entry there.
        rng = np.random.default_rng(11)
        u = rng.normal(size=(3, 10))
        u[:, 9] = bad
        label_sets = [frozenset({i % 3}) for i in range(10)]
        with np.errstate(invalid="ignore", over="ignore"), mock.patch.object(pairwise, "_GRAM_BLOCK", 4):
            with pytest.raises(ValueError, match="finite"):
                _full_loss(u, label_sets, 1.0)


def _labels(case, rng):
    """Label sets for one grouping shape, in shuffled item order."""
    if case == "large-single-groups":
        # 4 groups of about 250 items, each cut unevenly by block 96.
        return [frozenset({int(c)}) for c in rng.integers(0, 4, size=1000)]
    if case == "many-small-groups":
        # about 300 groups of about 3 items: nearly every tile is mixed.
        return [frozenset({int(c)}) for c in rng.integers(0, 300, size=900)]
    if case == "overlapping-multi-label":
        # up to 41 distinct sets of 1-3 of 6 classes; many pairs of
        # distinct sets still share a label.
        return [frozenset(int(c) for c in rng.choice(6, size=rng.integers(1, 4), replace=False))
                for _ in range(700)]
    if case == "one-large-group-among-small":
        labels = [frozenset({0})] * 500 + [frozenset({int(c)}) for c in rng.integers(1, 200, 300)]
        return [labels[i] for i in rng.permutation(len(labels))]
    return [frozenset({7})] * 100  # one group: every tile pair is similar


class TestGroupedFullLoss:
    @pytest.mark.parametrize("case, block", [
        ("large-single-groups", 96),
        ("large-single-groups", 250),
        ("many-small-groups", 64),
        ("overlapping-multi-label", 50),
        ("one-large-group-among-small", 128),
        ("one-group", 7),
    ])
    def test_matches_blocked_oracle(self, case, block):
        rng = np.random.default_rng(5)
        label_sets = _labels(case, rng)
        u = rng.normal(size=(12, len(label_sets)))
        for m in (0.0, 1.0):
            want = reference_pair_loss_full(u, label_sets, m, block=block)
            with mock.patch.object(pairwise, "_GRAM_BLOCK", block):
                assert _full_loss(u, label_sets, m) == pytest.approx(want, rel=1e-12)


def _full_loss(u, label_sets, m):
    sets, set_of = distinct_label_sets(label_sets)
    return pair_loss_full(u, set_of, relevance_matrix(sets, sets), m)


def _code_loss(b, label_sets, m):
    sets, set_of = distinct_label_sets(label_sets)
    return code_pair_loss(b, set_of, relevance_matrix(sets, sets), m)


@st.composite
def code_instances(draw):
    """Codes of K in {1, 12, 64, 65} bits for 1 to 400 items, all on one
    code, on a few codes or on distinct codes (as many as K allows);
    single-label or overlapping multi-label sets from a few classes, so
    sets are shared across codes, or from 21 classes, so many sets share
    a code; a margin in [0, 3]; and a row count that holds every distinct
    code, divides them or leaves a ragged end."""
    k = draw(st.sampled_from([1, 12, 64, 65]))
    n = draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, 400)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.sampled_from(["one", "few", "distinct"]))
    if spread == "distinct":
        low = min(k, 16)
        ints = np.resize(rng.permutation(2**low), n)
        signs = np.vstack([(ints >> np.arange(low)[:, None]) & 1, rng.integers(0, 2, (k - low, n))])
    else:
        pool = rng.integers(0, 2, (k, 1 if spread == "one" else draw(st.integers(2, 6))))
        signs = pool[:, rng.integers(0, pool.shape[1], n)]
    b = BinaryCodeMatrix.from_signs(2 * signs - 1)
    classes = draw(st.one_of(st.integers(1, 6), st.just(21)))
    most = draw(st.sampled_from([1, min(3, classes)]))
    label_sets = [frozenset(int(c) for c in rng.choice(classes, rng.integers(1, most + 1), replace=False))
                  for _ in range(n)]
    n_codes = b.groups().codes.n
    divisors = [r for r in range(1, n_codes) if n_codes % r == 0]
    ragged = [r for r in range(2, n_codes) if n_codes % r]
    rows = draw(st.sampled_from([n_codes, *divisors[-1:], *ragged[:1], *ragged[-1:]]))
    return b, label_sets, draw(st.floats(0.0, 3.0)), rows


class TestCodePairLoss:
    @given(code_instances())
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_on_dense_codes(self, instance):
        b, label_sets, m, rows = instance
        n_codes = b.groups().codes.n
        with mock.patch.object(pairwise, "_BLOCK_ENTRIES", rows * n_codes):
            got = _code_loss(b, label_sets, m)
        want = reference_pair_loss_full(dense_signs(b), label_sets, m)
        assert got == pytest.approx(want, rel=1e-12)
        # The pair counts are exact integers, so the row blocks change no
        # bit, and neither does counting patterns rather than filling the
        # reference's dense (code x label set) matrix: bounds of rows x
        # codes and of codes x codes entries, one block of every pattern
        # (b.n squared), and a few entries, one pattern per block.
        with mock.patch.object(pairwise, "_BLOCK_ENTRIES", n_codes * n_codes):
            one_block = _code_loss(b, label_sets, m)
        with mock.patch.object(pairwise, "_BLOCK_ENTRIES", b.n * b.n):
            one_pattern_block = _code_loss(b, label_sets, m)
        with mock.patch.object(pairwise, "_BLOCK_ENTRIES", 3):
            one_row_blocks = _code_loss(b, label_sets, m)
        sets, set_of = distinct_label_sets(label_sets)
        old = reference_code_pair_loss(b, set_of, relevance_matrix(sets, sets), m)
        assert got == one_block == one_pattern_block == one_row_blocks == old

    def test_three_items_by_hand(self):
        # K = 2, codes ++, +-, --; labels {0}, {0, 1}, {1}; m = 1.  Pairs
        # (0, 1) and (1, 2) share a label at h = 1, D = 0: softplus(1)
        # each.  (0, 2) shares none at h = 2, D = 1: softplus(-1 + 1).
        b = BinaryCodeMatrix.from_signs(np.array([[1, 1, -1], [1, -1, -1]]))
        got = _code_loss(b, [frozenset({0}), frozenset({0, 1}), frozenset({1})], 1.0)
        assert got == pytest.approx(2 * SP_1 + LOG2, rel=1e-15)
        assert got == pytest.approx(3.319670555596391, rel=1e-15)

    def test_all_distinct_codes_stay_within_blocks(self):
        # 2,000 distinct 64-bit codes in blocks of 50 rows: the scratch is
        # a few 50 x 2,000 arrays, far from one 2,000 x 2,000 float64 matrix.
        rng = np.random.default_rng(0)
        n = 2000
        b = BinaryCodeMatrix.from_signs(rng.choice([-1, 1], size=(64, n)))
        assert b.groups().codes.n == n
        label_sets = [frozenset({int(c)}) for c in rng.integers(0, 10, n)]
        with mock.patch.object(pairwise, "_BLOCK_ENTRIES", 50 * n):
            tracemalloc.start()
            try:
                _code_loss(b, label_sets, 1.0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        one_matrix = n * n * 8
        assert peak < one_matrix / 8

    def test_multi_label_scratch_is_not_codes_by_label_sets(self):
        # 2,000 distinct 64-bit codes with 1-3 of 21 labels each, about
        # 760 label sets, in blocks of 50 rows: no array is sized
        # codes x label sets, as a dense item-count matrix of them would be.
        rng = np.random.default_rng(1)
        n = 2000
        b = BinaryCodeMatrix.from_signs(rng.choice([-1, 1], size=(64, n)))
        assert b.groups().codes.n == n
        label_sets = [frozenset(int(c) for c in rng.choice(21, rng.integers(1, 4), replace=False))
                      for _ in range(n)]
        n_sets = len(set(label_sets))
        assert n_sets > 700
        with mock.patch.object(pairwise, "_BLOCK_ENTRIES", 50 * n):
            tracemalloc.start()
            try:
                _code_loss(b, label_sets, 1.0)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak < n * n_sets * 8 / 2
