"""Quantized class-center learning.

Each of the M classes gets a binary center c in {-1,+1}^K.  Codes are
pulled toward their (label-weighted) class center while centers repel
each other toward the maximal-separation Gram target A = K(2I - J).
The discrete center constraint is handled through a relaxed real
matrix V: gradient descent moves V, and C = sgn(V) reads the centers
back off the hypercube.  Codes themselves have a closed-form update,
B = sgn(mu * C Y + U), which translates each class's representations
by mu * C y before sign quantization.
"""

from __future__ import annotations

import numpy as np

from .binary_codes import BinaryCodeMatrix, dense_signs
from .exceptions import NumericalError


def sign_plus(x: np.ndarray) -> np.ndarray:
    """Elementwise sign with the package-wide convention sgn(0) = +1."""
    return np.where(np.asarray(x, dtype=np.float64) >= 0.0, 1.0, -1.0)


def check_label_matrix(y: np.ndarray) -> np.ndarray:
    """Validate an M x N class-proportion matrix (columns sum to 1)."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2:
        raise ValueError(f"label matrix must be 2-D, got shape {y.shape}")
    if (y < 0).any():
        raise ValueError("label proportions must be >= 0")
    sums = y.sum(axis=0)
    if not np.allclose(sums, 1.0, atol=1e-9):
        bad = int(np.argmax(np.abs(sums - 1.0)))
        raise ValueError(f"label column {bad} sums to {sums[bad]}, expected 1")
    return y


def target_matrix(k: int, m: int) -> np.ndarray:
    """Gram target K(2I - J): diagonal K, off-diagonal -K, shape M x M.

    Center Grams can only reach it when a fully antipodal/simplex-like
    geometry exists, e.g. two antipodal centers for M = 2.
    """
    if k < 1 or m < 1:
        raise ValueError("k and m must be >= 1")
    return k * (2.0 * np.eye(m) - np.ones((m, m)))


def intra_loss(b, c, y: np.ndarray) -> float:
    """Sum over items of ||b_i - C y_i||^2: codes near their centers."""
    bd, cd = dense_signs(b), dense_signs(c)
    y = np.asarray(y, dtype=np.float64)
    if cd.shape != (bd.shape[0], y.shape[0]) or y.shape[1] != bd.shape[1]:
        raise ValueError(
            f"inconsistent shapes: B {bd.shape}, C {cd.shape}, Y {y.shape}"
        )
    return float(((bd - cd @ y) ** 2).sum())


def inter_loss(c_or_v, a: np.ndarray) -> float:
    """||C^T C - A||_F^2: squared Gram distance to the separation target."""
    cd = dense_signs(c_or_v)
    a = np.asarray(a, dtype=np.float64)
    m = cd.shape[1]
    if a.shape != (m, m):
        raise ValueError(f"target matrix shape {a.shape} does not match M={m}")
    return float(((cd.T @ cd - a) ** 2).sum())


def quant_loss(b, u: np.ndarray) -> float:
    """Sum over items of ||b_i - u_i||^2: total quantization cost."""
    bd = dense_signs(b)
    u = np.asarray(u, dtype=np.float64)
    if bd.shape != u.shape:
        raise ValueError(f"shape mismatch: codes {bd.shape} vs representations {u.shape}")
    return float(((bd - u) ** 2).sum())


def center_gradient(v, b, y, a, mu: float, nu: float, eta: float) -> np.ndarray:
    """Gradient in V of  mu ||B - V Y||_F^2 + nu ||V^T V - A||_F^2
    + eta ||sgn(V) - V||_F^2,  with sgn(V) held constant:

        2 mu (V Y - B) Y^T + 4 nu V (V^T V - A) + 2 eta (V - sgn(V)).
    """
    v, y = np.asarray(v, dtype=np.float64), np.asarray(y, dtype=np.float64)
    return _gram_gradient(v, y @ y.T, dense_signs(b) @ y.T, a, mu, nu, eta)


def _gram_gradient(v, g, by, a, mu, nu, eta) -> np.ndarray:
    """center_gradient from G = Y Y^T (M x M) and BY = B Y^T (K x M)."""
    return (2.0 * mu * (v @ g - by) + 4.0 * nu * v @ (v.T @ v - a)
            + 2.0 * eta * (v - sign_plus(v)))


def update_centers(
    v: np.ndarray, b, y: np.ndarray, a: np.ndarray,
    mu: float, nu: float, eta: float, lr: float, steps: int,
) -> tuple[np.ndarray, BinaryCodeMatrix]:
    """Descend the relaxed centers V, then quantize to binary centers.

    Runs `steps` plain gradient steps of size lr on center_gradient,
    with mu divided by the number of items N, so the step size does not
    depend on dataset size, and nu by K*M, the natural gradient scale of
    the separation term, which keeps the descent stable across code
    lengths and class counts.  The sign pattern in the eta term is
    re-evaluated every step but treated as constant within it.  B and Y
    enter only through the Grams Y Y^T and B Y^T, summed over the N items
    once per call, so a step costs O(K M^2), not O(K M N).  Returns the
    new V and C = sgn(V).
    """
    v = np.asarray(v, dtype=np.float64).copy()
    bd = dense_signs(b)
    y = check_label_matrix(y)
    k, m = v.shape
    if bd.shape[0] != k or y.shape != (m, bd.shape[1]):
        raise ValueError(
            f"inconsistent shapes: V {v.shape}, B {bd.shape}, Y {y.shape}"
        )
    g, by = y @ y.T, bd @ y.T
    mu = mu / bd.shape[1]
    nu = nu / (k * m)
    # Divergence is detected and raised explicitly, so transient
    # overflow warnings from a blown-up step are noise.
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(steps):
            v -= lr * _gram_gradient(v, g, by, a, mu, nu, eta)
            if not np.isfinite(v).all():
                raise NumericalError(f"center update diverged at inner step {step}")
    return v, BinaryCodeMatrix.from_values(v)


def update_codes(u: np.ndarray, c, y: np.ndarray, mu: float) -> BinaryCodeMatrix:
    """Closed-form code update B = sgn(mu * C Y + U).

    Per item this minimizes  mu ||b - C y_i||^2 + ||b - u_i||^2  over
    all binary codes (coordinates separate, so the sign of each entry
    of the translated representation mu * C y_i + u_i is optimal; zero
    entries quantize to +1).
    """
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    u = np.asarray(u, dtype=np.float64)
    cd = dense_signs(c)
    y = np.asarray(y, dtype=np.float64)
    if cd.shape != (u.shape[0], y.shape[0]) or y.shape[1] != u.shape[1]:
        raise ValueError(
            f"inconsistent shapes: U {u.shape}, C {cd.shape}, Y {y.shape}"
        )
    return BinaryCodeMatrix.from_values(mu * (cd @ y) + u)


def init_centers(u: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Label-weighted class means of the representations.

    Column c is sum_i Y[c, i] u_i / sum_i Y[c, i]; for one-hot labels
    this is the plain class mean.
    """
    u = np.asarray(u, dtype=np.float64)
    y = check_label_matrix(y)
    if y.shape[1] != u.shape[1]:
        raise ValueError(f"item count mismatch: U {u.shape} vs Y {y.shape}")
    weights = y.sum(axis=1)
    empty = np.nonzero(weights == 0)[0]
    if empty.size:
        raise ValueError(f"class {int(empty[0])} has no items with positive weight")
    return (u @ y.T) / weights
