"""Independent numerical oracles used only by the tests.

The quadrature oracle integrates the scalar shrinkage functions against the
standard normal density by adaptive Simpson on [-12, 12]; the truncated tail
mass is far below the tolerances in play.  The coordinate-descent solver is a
reference implementation for checking the production LASSO solver, and the
two-matrix sampler draws instances from the model's defining equations as a
reference for the simulator's conditional draw; none shares code with the
package paths they validate.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _phi(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def _soft(a: float, t: float) -> float:
    if a > t:
        return a - t
    if a < -t:
        return a + t
    return 0.0


def _soft_value(a: float, t: float) -> float:
    if a > t:
        return t * a - 0.5 * t * t
    if a < -t:
        return -t * a - 0.5 * t * t
    return 0.5 * a * a


def _simpson(fa: float, fm: float, fb: float, a: float, b: float) -> float:
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adapt(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, a, m)
    right = _simpson(fm, frm, fb, m, b)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    half = tol / 2.0
    return (_adapt(f, a, m, fa, flm, fm, left, half, depth - 1)
            + _adapt(f, m, b, fm, frm, fb, right, half, depth - 1))


def adaptive_simpson(f, a: float, b: float, tol: float = 1e-11, depth: int = 60) -> float:
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    return _adapt(f, a, b, fa, fm, fb, _simpson(fa, fm, fb, a, b), tol, depth)


def oracle_expect_e(mu: float, tau: float, chi: float, tol: float = 1e-11) -> float:
    """Quadrature value of E_H[e(mu + tau*H; chi)]."""
    return adaptive_simpson(
        lambda h: _soft_value(mu + tau * h, chi) * _phi(h), -12.0, 12.0, tol
    )


def oracle_expect_eta(mu: float, tau: float, chi: float, tol: float = 1e-11) -> float:
    """Quadrature value of E_H[eta(mu + tau*H; chi)]."""
    return adaptive_simpson(
        lambda h: _soft(mu + tau * h, chi) * _phi(h), -12.0, 12.0, tol
    )


def cd_lasso(A: np.ndarray, y: np.ndarray, lam: float,
             tol: float = 1e-12, max_sweeps: int = 50000) -> np.ndarray:
    """Cyclic coordinate descent on (1/2)||y - A x||^2 + lam ||x||_1."""
    m, n = A.shape
    col_sq = np.einsum("ij,ij->j", A, A)
    x = np.zeros(n)
    r = y.copy()
    for _ in range(max_sweeps):
        max_dx = 0.0
        for j in range(n):
            if col_sq[j] == 0.0:
                continue
            old = x[j]
            rho = A[:, j] @ r + col_sq[j] * old
            new = _soft(rho, lam) / col_sq[j]
            if new != old:
                r -= (new - old) * A[:, j]
                x[j] = new
                max_dx = max(max_dx, abs(new - old))
        if max_dx <= tol:
            break
    return x


def two_matrix_instance(cfg, x0: np.ndarray, m: int,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """(A, y) from y = H x0 + z and A = gamma H + eps Omega, H and Omega iid N(0, 1/n)."""
    scale = 1.0 / math.sqrt(x0.size)
    H = rng.normal(0.0, scale, size=(m, x0.size))
    omega = rng.normal(0.0, scale, size=(m, x0.size))
    z = rng.normal(0.0, math.sqrt(cfg.sigma_z2), size=m)
    return cfg.gamma * H + math.sqrt(cfg.eps2) * omega, H @ x0 + z
