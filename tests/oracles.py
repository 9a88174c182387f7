"""Independent reference computations used by several test modules."""

import numpy as np

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
