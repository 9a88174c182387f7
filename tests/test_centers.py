import numpy as np
import pytest

from fisherhash.binary_codes import BinaryCodeMatrix
from fisherhash.centers import (
    center_gradient,
    check_label_matrix,
    init_centers,
    inter_loss,
    intra_loss,
    quant_loss,
    sign_plus,
    target_matrix,
    update_centers,
    update_codes,
)
from fisherhash.datasets import label_matrix
from fisherhash.exceptions import NumericalError
from oracles import brute_force_codes, enumerate_codes, reference_update_centers


def one_hot(labels, m):
    y = np.zeros((m, len(labels)))
    y[labels, np.arange(len(labels))] = 1.0
    return y


def frozen_sign_l2(v, b_dense, y, a, mu, nu, eta, frozen_sign):
    return (
        mu * ((b_dense - v @ y) ** 2).sum()
        + nu * ((v.T @ v - a) ** 2).sum()
        + eta * ((frozen_sign - v) ** 2).sum()
    )


class TestTargetMatrix:
    def test_three_classes(self):
        want = [[8, -8, -8], [-8, 8, -8], [-8, -8, 8]]
        assert target_matrix(8, 3).tolist() == want

    def test_single_class(self):
        assert target_matrix(7, 1).tolist() == [[7]]

    def test_two_classes(self):
        assert target_matrix(12, 2).tolist() == [[12, -12], [-12, 12]]


class TestIntraLoss:
    def test_zero_when_codes_sit_on_centers(self):
        c = BinaryCodeMatrix.from_signs(np.array([[1, -1], [1, 1]]))
        labels = [0, 1, 1, 0]
        b = BinaryCodeMatrix.from_signs(c.dense()[:, labels])
        assert intra_loss(b, c, one_hot(labels, 2)) == 0.0

    def test_hand_single_item(self):
        b = BinaryCodeMatrix.from_signs(np.array([[1], [1]]))
        c = BinaryCodeMatrix.from_signs(np.array([[1], [-1]]))
        assert intra_loss(b, c, np.array([[1.0]])) == 4.0

    def test_hand_multi_label(self):
        c = BinaryCodeMatrix.from_signs(np.array([[1, 1], [1, -1]]))
        b = BinaryCodeMatrix.from_signs(np.array([[1], [1]]))
        y = np.array([[0.5], [0.5]])
        assert intra_loss(b, c, y) == 1.0

    def test_shape_mismatch_rejected(self):
        c = BinaryCodeMatrix.from_signs(np.ones((3, 2)))
        b = BinaryCodeMatrix.from_signs(np.ones((2, 4)))
        with pytest.raises(ValueError):
            intra_loss(b, c, one_hot([0, 1, 0, 1], 2))


class TestInterLoss:
    def test_antipodal_pair_reaches_zero(self):
        for k in (2, 5, 16):
            c = np.ones((k, 2))
            c[:, 1] = -1
            assert inter_loss(c, target_matrix(k, 2)) == 0.0

    def test_identical_pair(self):
        for k in (2, 7):
            c = np.ones((k, 2))
            assert inter_loss(c, target_matrix(k, 2)) == 8.0 * k * k

    def test_per_term_monotone_under_separating_flip(self):
        # Flipping a bit of c_i that lowers <c_i, c_j> toward -K never
        # raises that pair's contribution (<c_i,c_j> + K)^2.
        rng = np.random.default_rng(17)
        k = 6
        for _ in range(200):
            ci = rng.choice([-1.0, 1.0], size=k)
            cj = rng.choice([-1.0, 1.0], size=k)
            agree = np.nonzero(ci == cj)[0]
            if agree.size == 0:
                continue
            before = (ci @ cj + k) ** 2
            ci_flipped = ci.copy()
            ci_flipped[agree[0]] *= -1
            after = (ci_flipped @ cj + k) ** 2
            assert after <= before

    def test_pairwise_distance_and_gram_loss_rank_identically(self):
        # Two center configurations differing in a single pair: larger
        # summed pairwise distance <=> smaller Gram loss term.
        k = 4
        a = target_matrix(k, 2)
        codes = enumerate_codes(k)
        for i in range(len(codes)):
            for j in range(len(codes)):
                c1 = np.stack([codes[i], codes[j]], axis=1)
                for l in range(len(codes)):
                    c2 = np.stack([codes[i], codes[l]], axis=1)
                    d1 = ((c1[:, 0] - c1[:, 1]) ** 2).sum()
                    d2 = ((c2[:, 0] - c2[:, 1]) ** 2).sum()
                    if d1 > d2:
                        assert inter_loss(c1, a) < inter_loss(c2, a)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            inter_loss(np.ones((4, 3)), target_matrix(4, 2))


class TestQuantLoss:
    def test_zero_at_exact_codes(self):
        b = BinaryCodeMatrix.from_signs(np.ones((3, 5)))
        assert quant_loss(b, np.ones((3, 5))) == 0.0

    def test_single_entry(self):
        b = BinaryCodeMatrix.from_signs(np.array([[1.0]]))
        assert quant_loss(b, np.array([[0.2]])) == pytest.approx(0.64, abs=1e-15)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(2)
        signs = rng.choice([-1, 1], size=(6, 9))
        u = rng.normal(size=(6, 9))
        total = sum(
            float(((signs[:, i] - u[:, i]) ** 2).sum()) for i in range(9)
        )
        got = quant_loss(BinaryCodeMatrix.from_signs(signs), u)
        assert got == pytest.approx(total, rel=1e-12)


class TestCenterGradient:
    def test_matches_finite_differences_with_frozen_sign(self):
        rng = np.random.default_rng(11)
        k, m, n = 4, 3, 10
        for _ in range(5):
            v = rng.normal(size=(k, m))
            b = rng.choice([-1.0, 1.0], size=(k, n))
            y = one_hot(rng.integers(0, m, size=n), m)
            a = target_matrix(k, m)
            mu, nu, eta = rng.uniform(0.1, 2.0, size=3)
            frozen = sign_plus(v)
            analytic = center_gradient(v, b, y, a, mu, nu, eta)
            numeric = np.zeros_like(v)
            step = 1e-6
            for r in range(k):
                for c in range(m):
                    up, dn = v.copy(), v.copy()
                    up[r, c] += step
                    dn[r, c] -= step
                    numeric[r, c] = (
                        frozen_sign_l2(up, b, y, a, mu, nu, eta, frozen)
                        - frozen_sign_l2(dn, b, y, a, mu, nu, eta, frozen)
                    ) / (2 * step)
            denom = np.maximum(np.abs(numeric), 1.0)
            assert (np.abs(analytic - numeric) / denom).max() < 1e-4

    def test_eta_term_vanishes_on_sign_entries(self):
        v = np.array([[1.0, -1.0], [-1.0, 1.0]])
        grad = center_gradient(v, np.zeros((2, 1)), np.array([[0.0], [1.0]]),
                               target_matrix(2, 2), 0.0, 0.0, 3.0)
        assert np.abs(grad).max() == 0.0


class TestUpdateCenters:
    def test_fixed_point_when_all_terms_vanish(self):
        v = np.array([[1.0, -1.0], [-1.0, -1.0]])
        y = one_hot([0, 1], 2)
        b = BinaryCodeMatrix.from_signs(v)
        v2, c2 = update_centers(v, b, y, target_matrix(2, 2),
                                mu=0.0, nu=0.0, eta=2.0, lr=1e-2, steps=50)
        np.testing.assert_array_equal(v2, v)
        np.testing.assert_array_equal(c2.dense(np.float64), v)

    def test_converges_to_class_means_of_codes(self):
        rng = np.random.default_rng(4)
        k, m, n = 6, 3, 30
        labels = np.repeat(np.arange(m), n // m)
        y = one_hot(labels, m)
        signs = rng.choice([-1.0, 1.0], size=(k, n))
        b = BinaryCodeMatrix.from_signs(signs)
        means = np.stack([signs[:, labels == c].mean(axis=1) for c in range(m)], axis=1)
        v0 = rng.normal(size=(k, m))
        v2, _ = update_centers(v0, b, y, target_matrix(k, m),
                               mu=1.0, nu=0.0, eta=0.0, lr=0.5, steps=400)
        np.testing.assert_allclose(v2, means, atol=1e-8)

    def test_divergence_reports_step_index(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=(4, 2)) * 10
        b = BinaryCodeMatrix.from_signs(np.ones((4, 6)))
        y = one_hot([0, 1, 0, 1, 0, 1], 2)
        with pytest.raises(NumericalError, match="step"):
            update_centers(v, b, y, target_matrix(4, 2),
                           mu=1.0, nu=5.0, eta=0.0, lr=1e6, steps=200)

    @pytest.mark.parametrize("y, match", [
        (np.array([[1.5, 1.0, 0.0], [-0.5, 0.0, 1.0]]), ">= 0"),
        (np.array([[1.0, 0.5, 0.0], [0.0, 0.4, 1.0]]), "column 1 sums to"),
    ], ids=["negative-entry", "column-sum"])
    def test_rejects_a_bad_label_matrix(self, y, match):
        # Each call checks the Y it sums into Y Y^T and B Y^T.
        b = BinaryCodeMatrix.from_signs(np.ones((4, 3)))
        with pytest.raises(ValueError, match=match):
            update_centers(np.ones((4, 2)), b, y, target_matrix(4, 2),
                           mu=1.0, nu=0.1, eta=0.5, lr=1e-2, steps=1)

    def test_duplicating_every_item_leaves_the_descent_unchanged(self):
        # The mu term is divided by the item count, so stacking every
        # column of B and Y twice doubles the pull and halves its weight.
        rng = np.random.default_rng(12)
        k, m, n = 8, 3, 30
        y = one_hot(rng.integers(0, m, size=n), m)
        signs = rng.choice([-1.0, 1.0], size=(k, n))
        v0 = rng.normal(size=(k, m))
        knobs = dict(mu=1.0, nu=0.1, eta=0.5, lr=1e-2, steps=20)
        v1, c1 = update_centers(v0, BinaryCodeMatrix.from_signs(signs), y,
                                target_matrix(k, m), **knobs)
        v2, c2 = update_centers(v0, BinaryCodeMatrix.from_signs(np.hstack([signs, signs])),
                                np.hstack([y, y]), target_matrix(k, m), **knobs)
        np.testing.assert_allclose(v2, v1, rtol=0, atol=1e-12)
        assert c2 == c1


class TestUpdateCentersAgainstPerItemLoop:
    @pytest.mark.parametrize("multi_label", [False, True], ids=["one-hot", "multi-label"])
    @pytest.mark.parametrize("k", [1, 12, 64, 65])
    def test_gram_form_matches_the_per_item_loop(self, k, multi_label):
        rng = np.random.default_rng(100 * k + multi_label)
        for _ in range(6):
            m = int(rng.integers(1, 13))
            n = int(rng.integers(1, 501))
            sizes = rng.integers(1, min(3, m) + 1, size=n) if multi_label else np.ones(n, int)
            y = label_matrix([rng.choice(m, size=z, replace=False).tolist() for z in sizes], m)
            signs = rng.choice([-1.0, 1.0], size=(k, n))
            v0 = rng.normal(size=(k, m))
            a = target_matrix(k, m)
            knobs = dict(mu=rng.uniform(0, 2), nu=rng.uniform(0, 2), eta=rng.uniform(0, 1),
                         lr=rng.uniform(1e-3, 5e-2), steps=int(rng.integers(1, 41)))
            want = reference_update_centers(v0, signs, y, a, **knobs)
            got, c = update_centers(v0, BinaryCodeMatrix.from_signs(signs), y, a, **knobs)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            clear = np.abs(want) > 1e-9
            np.testing.assert_array_equal(c.dense(np.float64)[clear], sign_plus(want)[clear])


class TestUpdateCodes:
    def test_center_and_representation_agree(self):
        c = BinaryCodeMatrix.from_signs(np.array([[1], [-1]]))
        y = np.array([[1.0]])
        u = np.array([[0.3], [-2.5]])
        got = update_codes(u, c, y, 1.0).dense()
        assert got[:, 0].tolist() == [1, -1]
        oracle = brute_force_codes(u, c.dense(np.float64), y, 1.0)
        assert np.array_equal(got, oracle)

    def test_center_overrides_representation_sign(self):
        c = BinaryCodeMatrix.from_signs(np.array([[-1], [1]]))
        y = np.array([[1.0]])
        u = np.array([[0.3], [-0.5]])
        got = update_codes(u, c, y, 1.0).dense()
        assert got[:, 0].tolist() == [-1, 1]
        oracle = brute_force_codes(u, c.dense(np.float64), y, 1.0)
        assert np.array_equal(got, oracle)

    def test_mu_zero_is_plain_sign_quantization(self):
        rng = np.random.default_rng(3)
        u = rng.normal(size=(5, 7))
        u[2, 3] = 0.0  # exercise the sgn(0) = +1 convention
        c = BinaryCodeMatrix.from_signs(np.ones((5, 2)))
        y = one_hot(rng.integers(0, 2, size=7), 2)
        got = update_codes(u, c, y, 0.0).dense(np.float64)
        np.testing.assert_array_equal(got, sign_plus(u))

    def test_exhaustive_optimality_random_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            k = int(rng.integers(2, 9))
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 5))
            u = rng.normal(size=(k, n))
            c_signs = rng.choice([-1.0, 1.0], size=(k, m))
            y = one_hot(rng.integers(0, m, size=n), m)
            mu = float(rng.uniform(0, 3))
            got = update_codes(u, BinaryCodeMatrix.from_signs(c_signs), y, mu)
            want = brute_force_codes(u, c_signs, y, mu)
            assert np.array_equal(got.dense(np.float64), want)

    def test_translation_constant_within_class(self):
        rng = np.random.default_rng(8)
        k, m, n = 4, 2, 10
        labels = rng.integers(0, m, size=n)
        y = one_hot(labels, m)
        u = rng.normal(size=(k, n))
        c = rng.choice([-1.0, 1.0], size=(k, m))
        mu = 1.7
        f = mu * (c @ y) + u
        shift = f - u  # recovers mu * C y_i up to rounding
        for cls in range(m):
            cols = shift[:, labels == cls]
            assert np.ptp(cols, axis=1).max() < 1e-12


class TestInitCenters:
    def test_plain_class_mean(self):
        u = np.array([[1.0, 3.0], [3.0, 1.0]])
        v = init_centers(u, one_hot([0, 0], 1))
        np.testing.assert_array_equal(v, [[2.0], [2.0]])

    def test_one_item_per_class(self):
        u = np.array([[1.0, -2.0], [0.5, 4.0]])
        v = init_centers(u, one_hot([0, 1], 2))
        np.testing.assert_array_equal(v, u)

    def test_weighted_mean_matches_naive_loop(self):
        rng = np.random.default_rng(13)
        k, m, n = 3, 4, 12
        u = rng.normal(size=(k, n))
        y = rng.uniform(0.01, 1.0, size=(m, n))
        y /= y.sum(axis=0)
        got = init_centers(u, y)
        want = np.zeros((k, m))
        for c in range(m):
            want[:, c] = sum(y[c, i] * u[:, i] for i in range(n)) / y[c].sum()
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_empty_class_rejected_with_index(self):
        y = np.zeros((3, 2))
        y[0, 0] = 1.0
        y[2, 1] = 1.0
        with pytest.raises(ValueError, match="class 1"):
            init_centers(np.ones((2, 2)), y)


class TestLabelMatrixValidation:
    def test_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            check_label_matrix(np.array([[1.5], [-0.5]]))

    def test_rejects_bad_column_sum(self):
        with pytest.raises(ValueError, match="sums to"):
            check_label_matrix(np.array([[0.5], [0.4]]))
