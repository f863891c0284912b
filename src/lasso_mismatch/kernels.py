"""Scalar kernels: soft thresholding, its optimal value, and their Gaussian averages.

Everything here is a pure function of float scalars.  The Gaussian
expectations are evaluated with closed forms in the standard-normal pdf and
tail function; the derivations split the integral over the three branches of
the piecewise definitions.  With u+ = (chi - mu) / tau and u- = (-chi - mu) / tau:

    E[eta(mu + tau*H; chi)] = (mu - chi) Q(u+) + tau phi(u+)
                            + (mu + chi) Q(-u-) - tau phi(u-)

    E[e(mu + tau*H; chi)]   = (chi*mu - chi^2/2) Q(u+) + chi*tau phi(u+)
                            + (-chi*mu - chi^2/2) Q(-u-) + chi*tau phi(u-)
                            + (mu^2 + tau^2)/2 * (Q(u-) - Q(u+))
                            + mu*tau (phi(u-) - phi(u+))
                            + tau^2/2 * (u- phi(u-) - u+ phi(u+))

    E|eta(mu + tau*H; chi)| = (mu - chi) Q(u+) + tau phi(u+)
                            - (mu + chi) Q(-u-) + tau phi(u-)

    P(|mu + tau*H| <= chi)  = Q(u-) - Q(u+)

using the identities  int_a^b phi = Q(a) - Q(b),  int_a^b h phi = phi(a) - phi(b),
int_a^b h^2 phi = Q(a) - Q(b) + a phi(a) - b phi(b).  These are cross-checked
against an adaptive-quadrature oracle in the test suite.
"""

from __future__ import annotations

import math

__all__ = [
    "soft_threshold",
    "soft_threshold_value",
    "std_normal_pdf",
    "q_function",
    "gauss_expect_e",
    "gauss_expect_eta",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _check_finite(name: str, x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"{name} must be finite, got {x!r}")
    return x


def soft_threshold(a: float, t: float) -> float:
    """Soft-thresholding eta(a; t): shrink a toward zero by t with a dead zone.

    Ties |a| == t belong to the dead zone, which keeps eta continuous.
    """
    a = _check_finite("a", a)
    t = _check_finite("t", t)
    if t <= 0.0:
        raise ValueError(f"threshold must be positive, got {t}")
    if a > t:
        return a - t
    if a < -t:
        return a + t
    return 0.0


def soft_threshold_value(a: float, t: float) -> float:
    """Optimal value e(a; t) = min_x (x - a)^2 / 2 + t |x| of the shrinkage problem."""
    a = _check_finite("a", a)
    t = _check_finite("t", t)
    if t <= 0.0:
        raise ValueError(f"threshold must be positive, got {t}")
    if a > t:
        return t * a - 0.5 * t * t
    if a < -t:
        return -t * a - 0.5 * t * t
    return 0.5 * a * a


def _pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def _q(x: float) -> float:
    return 0.5 * math.erfc(x * _INV_SQRT2)


def std_normal_pdf(x: float) -> float:
    """phi(x) = exp(-x^2/2) / sqrt(2 pi)."""
    return _pdf(_check_finite("x", x))


def q_function(x: float) -> float:
    """Standard normal tail Q(x) = P[N(0,1) > x], via the complementary error function."""
    return _q(_check_finite("x", x))


def _check_gauss_args(mean: float, spread: float, threshold: float) -> tuple[float, float, float]:
    mean = _check_finite("mean", mean)
    spread = _check_finite("spread", spread)
    threshold = _check_finite("threshold", threshold)
    if spread <= 0.0:
        raise ValueError(f"spread must be positive, got {spread}")
    if threshold <= 0.0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    return mean, spread, threshold


def _gauss_moments(mu: float, tau: float, chi: float) -> tuple[float, float, float]:
    """(E e, E|eta|, P(|a| <= chi)) for a = mu + tau*H, from one set of Q and phi values.

    Arguments are not checked; gauss_expect_e is the checked entry point.
    """
    up = (chi - mu) / tau
    um = (-chi - mu) / tau
    q_up, q_um, q_mum = _q(up), _q(um), _q(-um)
    p_up, p_um = _pdf(up), _pdf(um)
    # a > chi and a < -chi branches of e
    upper = (chi * mu - 0.5 * chi * chi) * q_up + chi * tau * p_up
    lower = (-chi * mu - 0.5 * chi * chi) * q_mum + chi * tau * p_um
    # dead zone: quadratic branch a^2/2 integrated between u- and u+
    dead = (
        0.5 * (mu * mu + tau * tau) * (q_um - q_up)
        + mu * tau * (p_um - p_up)
        + 0.5 * tau * tau * (um * p_um - up * p_up)
    )
    abs_eta = (mu - chi) * q_up + tau * p_up - (mu + chi) * q_mum + tau * p_um
    return upper + dead + lower, abs_eta, q_um - q_up


def gauss_expect_e(mean: float, spread: float, threshold: float) -> float:
    """E_H[e(mean + spread*H; threshold)] for H standard normal, in closed form.

    spread and threshold must be positive; all three must be finite.
    """
    return _gauss_moments(*_check_gauss_args(mean, spread, threshold))[0]


def gauss_expect_eta(mean: float, spread: float, threshold: float) -> float:
    """E_H[eta(mean + spread*H; threshold)] for H standard normal, in closed form.

    spread and threshold must be positive; all three must be finite.
    """
    mu, tau, chi = _check_gauss_args(mean, spread, threshold)
    up = (chi - mu) / tau
    um = (-chi - mu) / tau
    return (
        (mu - chi) * _q(up)
        + tau * _pdf(up)
        + (mu + chi) * _q(-um)
        - tau * _pdf(um)
    )
