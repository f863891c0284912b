"""Independent numerical oracles used only by the tests.

The quadrature oracle integrates the scalar shrinkage functions against the
standard normal density by adaptive Simpson on [-12, 12]; the truncated tail
mass is far below the tolerances in play.  The nested golden-section saddle
search minimizes over tau the maximum over beta of a given objective, by
derivative-free bracket searches, as a reference for the gradient-root
saddle solver, and bisection on a central difference locates a 1-D
minimiser as a reference for Brent's minimiser.  The state-evolution
residuals restate the saddle as the fixed point of the matched LASSO's state
evolution, by quadrature alone, as a reference for the whole saddle solver.
The coordinate-descent solver is a reference implementation for checking the
production LASSO solver, and the two-matrix sampler draws instances from the
model's defining equations as a reference for the simulator's conditional
draw; none shares code with the package paths they validate.
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


def _clipped_simpson(f, a: float, b: float, tol: float) -> float:
    """Adaptive Simpson of f over [a, b] cut to [-12, 12]; 0 when that is empty."""
    a, b = max(a, -12.0), min(b, 12.0)
    return adaptive_simpson(f, a, b, tol) if a < b else 0.0


def state_evolution(cfg, atoms, tau: float, beta: float,
                    tol: float = 1e-12) -> tuple[float, float, float]:
    """Scaled residuals of the state evolution at (tau, beta), and the MSE.

    With a = gamma X + tau Z, chi = 2 lam tau / beta and s^2 = sigma_z^2 +
    eps^2 E[X^2], the saddle is the Bayati-Montanari fixed point of a LASSO
    with signal gamma X and noise variance s^2:
        (SE1) delta tau^2 = s^2 + E[(eta(a; chi) - gamma X)^2],
        (SE2) lam / chi = delta - P(|a| > chi).
    Returns (SE1's right side over its left side, less 1; SE2's difference
    over delta; E[(eta(a; chi) - X)^2]).  Each expectation sums over the
    (value, probability) atoms quadratures over Z, split where |a| = chi so
    that each piece is smooth, each to absolute tolerance tol times its scale.
    """
    gamma = math.sqrt(1.0 - cfg.eps2)
    chi = 2.0 * cfg.lam * tau / beta
    ex2 = shrink_err = mse = outside = 0.0
    for v, w in atoms:
        mu = gamma * v
        lo, hi = (-chi - mu) / tau, (chi - mu) / tau  # |a| <= chi for Z in [lo, hi]
        inside = _clipped_simpson(_phi, lo, hi, tol)
        outside += w * (_clipped_simpson(_phi, -12.0, lo, tol)
                        + _clipped_simpson(_phi, hi, 12.0, tol))

        def err2(target: float) -> float:
            # E[(eta(a; chi) - target)^2]: eta is 0 inside, a -+ chi outside
            t = tol * (tau * tau + target * target)
            return (target * target * inside
                    + _clipped_simpson(lambda h: (mu + tau * h + chi - target) ** 2 * _phi(h),
                                       -12.0, lo, t)
                    + _clipped_simpson(lambda h: (mu + tau * h - chi - target) ** 2 * _phi(h),
                                       hi, 12.0, t))

        ex2 += w * v * v
        shrink_err += w * err2(mu)
        mse += w * err2(v)
    se1 = (cfg.sigma_z2 + cfg.eps2 * ex2 + shrink_err) / (cfg.delta * tau * tau) - 1.0
    se2 = (cfg.lam / chi - cfg.delta + outside) / cfg.delta
    return se1, se2, mse


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


def derivative_root(f, lo: float, hi: float, h: float = 1e-4, tol: float = 1e-9) -> float:
    """Root of the central difference f(x + h) - f(x - h) on [lo, hi], by bisection.

    The difference must be negative at lo and positive at hi, so the root is
    a minimiser of a smooth f, to O(h^2); stops at bracket width tol.
    """
    def slope(x: float) -> float:
        return f(x + h) - f(x - h)

    if not slope(lo) < 0.0 < slope(hi):
        raise RuntimeError("the central difference does not change sign on [lo, hi]")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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
