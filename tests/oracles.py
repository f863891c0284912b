"""Independent numerical oracles used only by the tests.

The quadrature oracle integrates the scalar shrinkage functions against the
standard normal density by adaptive Simpson on [-12, 12]; the truncated tail
mass is far below the tolerances in play.  The nested golden-section saddle
search minimizes over tau the maximum over beta of a given objective, by
derivative-free bracket searches, as a reference for the gradient-root
saddle solver.  The coordinate-descent solver is a reference implementation
for checking the production LASSO solver, and the two-matrix sampler draws
instances from the model's defining equations as a reference for the
simulator's conditional draw; none shares code with the package paths they
validate.
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


def oracle_expect_abs_eta(mu: float, tau: float, chi: float, tol: float = 1e-11) -> float:
    """Quadrature value of E_H[|eta(mu + tau*H; chi)|]."""
    return adaptive_simpson(
        lambda h: abs(_soft(mu + tau * h, chi)) * _phi(h), -12.0, 12.0, tol
    )


def oracle_prob_inside(mu: float, tau: float, chi: float, tol: float = 1e-11) -> float:
    """Quadrature value of P(|mu + tau*H| <= chi): phi integrated over the dead zone."""
    return adaptive_simpson(_phi, (-chi - mu) / tau, (chi - mu) / tau, tol)


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_min(f, lo: float, hi: float, rel_tol: float,
                max_iters: int = 200) -> tuple[float, float]:
    """(argmin, value) of a unimodal f on [lo, hi], to width rel_tol * max(1, |x|)."""
    a, b = lo, hi
    c, d = b - _INV_GOLDEN * (b - a), a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(max_iters):
        if b - a <= rel_tol * max(1.0, abs(0.5 * (a + b))):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    else:
        raise RuntimeError("golden section did not converge")
    x = 0.5 * (a + b)
    return x, f(x)


def _expanding_golden_min(f, lo: float, hi: float, rel_tol: float) -> tuple[float, float]:
    """Golden section on [lo, hi'], hi' the first doubling of hi past which f rises."""
    f_hi = f(hi)
    while True:
        f_next = f(2.0 * hi)
        hi *= 2.0
        if f_next >= f_hi:
            break
        f_hi = f_next
        if hi > 1e6:
            raise RuntimeError("bracket expansion exceeded 1e6")
    return _golden_min(f, lo, hi, rel_tol)


def golden_saddle(D, tau_lo: float) -> tuple[float, float]:
    """(tau*, beta*) minimizing tau -> max_beta D(tau, beta) by nested golden sections.

    Inner search over beta from [1e-6, 10] to relative width 1e-10, outer
    over tau from [tau_lo, 10] to 1e-9, each bracket doubling its upper end
    while the function still falls.
    """

    def beta_max(tau: float) -> tuple[float, float]:
        beta, neg = _expanding_golden_min(lambda b: -D(tau, b), 1e-6, 10.0, 1e-10)
        return beta, -neg

    tau, _ = _expanding_golden_min(lambda t: beta_max(t)[1], tau_lo, 10.0, 1e-9)
    return tau, beta_max(tau)[0]


def cd_lasso(A: np.ndarray, y: np.ndarray, lam: float,
             tol: float = 1e-12, max_sweeps: int = 50000,
             start: np.ndarray | None = None) -> np.ndarray:
    """Cyclic coordinate descent on (1/2)||y - A x||^2 + lam ||x||_1.

    It starts from zero, or from `start`; it converges to a minimizer from
    any start, and a start near one saves sweeps on large problems.
    """
    m, n = A.shape
    col_sq = np.einsum("ij,ij->j", A, A)
    x = np.zeros(n) if start is None else np.array(start, dtype=float)
    r = y - A @ x
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
