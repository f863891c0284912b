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

    E[(eta(mu + tau*H; chi) - v)^2]
        = c^2 Q(u+) + 2 c tau phi(u+) + tau^2 (Q(u+) + u+ phi(u+))
        + d^2 Q(-u-) - 2 d tau phi(u-) + tau^2 (Q(-u-) - u- phi(u-))
        + v^2 (Q(u-) - Q(u+)),      c = mu - chi - v,  d = mu + chi - v

    P(|mu + tau*H| <= chi)  = Q(u-) - Q(u+)

    d/dchi P(|a| <= chi)    = (phi(u+) + phi(u-)) / tau
    d/dtau P(|a| <= chi)    = (u- phi(u-) - u+ phi(u+)) / tau

using the identities  int_a^b phi = Q(a) - Q(b),  int_a^b h phi = phi(a) - phi(b),
int_a^b h^2 phi = Q(a) - Q(b) + a phi(a) - b phi(b).  These are cross-checked
against an adaptive-quadrature oracle in the test suite.
"""

from __future__ import annotations

import math

__all__ = [
    "soft_threshold",
    "soft_threshold_value",
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


def _check_positive(name: str, x: float) -> float:
    x = float(x)
    if not 0.0 < x < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {x!r}")
    return x


def soft_threshold(a: float, t: float) -> float:
    """Soft-thresholding eta(a; t): shrink a toward zero by t with a dead zone.

    Ties |a| == t belong to the dead zone, which keeps eta continuous.
    """
    a = _check_finite("a", a)
    t = _check_positive("t", t)
    if a > t:
        return a - t
    if a < -t:
        return a + t
    return 0.0


def soft_threshold_value(a: float, t: float) -> float:
    """Optimal value e(a; t) = min_x (x - a)^2 / 2 + t |x| of the shrinkage problem."""
    a = _check_finite("a", a)
    t = _check_positive("t", t)
    if a > t:
        return t * a - 0.5 * t * t
    if a < -t:
        return -t * a - 0.5 * t * t
    return 0.5 * a * a


def _pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def _q(x: float) -> float:
    return 0.5 * math.erfc(x * _INV_SQRT2)


def q_function(x: float) -> float:
    """Standard normal tail Q(x) = P[N(0,1) > x], via the complementary error function."""
    return _q(_check_finite("x", x))


def _check_gauss_args(mean: float, spread: float, threshold: float) -> tuple[float, float, float]:
    return (_check_finite("mean", mean), _check_positive("spread", spread),
            _check_positive("threshold", threshold))


def _gauss_moments(mu: float, tau: float, chi: float) -> tuple[float, float, float, float, float]:
    """(E e, E|eta|, P(|a| <= chi) and its partials in chi and tau) for a = mu + tau*H.

    All five come from one set of Q and phi values; at mu == 0 (a prior's
    zero atom) -u- is u+ exactly, so Q(-u-) and phi(u-) are Q(u+) and phi(u+).
    Q and phi are `_q`'s and `_pdf`'s expressions written out, which give the
    same bits without a call per value: the saddle solver evaluates this for
    every atom on every step.  Arguments are not checked; gauss_expect_e is
    the checked entry point.
    """
    erfc, exp = math.erfc, math.exp
    up = (chi - mu) / tau
    um = (-chi - mu) / tau
    q_up = 0.5 * erfc(up * _INV_SQRT2)
    q_um = 0.5 * erfc(um * _INV_SQRT2)
    p_up = exp(-0.5 * up * up) / _SQRT_2PI
    if mu == 0.0:
        q_mum, p_um = q_up, p_up
    else:
        q_mum = 0.5 * erfc(-um * _INV_SQRT2)
        p_um = exp(-0.5 * um * um) / _SQRT_2PI
    tails = um * p_um - up * p_up
    # a > chi and a < -chi branches of e
    upper = (chi * mu - 0.5 * chi * chi) * q_up + chi * tau * p_up
    lower = (-chi * mu - 0.5 * chi * chi) * q_mum + chi * tau * p_um
    # dead zone: quadratic branch a^2/2 integrated between u- and u+
    dead = (
        0.5 * (mu * mu + tau * tau) * (q_um - q_up)
        + mu * tau * (p_um - p_up)
        + 0.5 * tau * tau * tails
    )
    abs_eta = (mu - chi) * q_up + tau * p_up - (mu + chi) * q_mum + tau * p_um
    return upper + dead + lower, abs_eta, q_um - q_up, (p_up + p_um) / tau, tails / tau


def _gauss_sq_error(mu: float, tau: float, chi: float, v: float) -> float:
    """E[(eta(a; chi) - v)^2] for a = mu + tau*H, summed over the three branches of eta.

    Q and phi are written out as in `_gauss_moments`.  Arguments are not
    checked; predict_mse checks tau and chi once per call.
    """
    erfc, exp = math.erfc, math.exp
    up = (chi - mu) / tau
    um = (-chi - mu) / tau
    q_up = 0.5 * erfc(up * _INV_SQRT2)
    q_um = 0.5 * erfc(um * _INV_SQRT2)
    q_mum = 0.5 * erfc(-um * _INV_SQRT2)
    p_up = exp(-0.5 * up * up) / _SQRT_2PI
    p_um = exp(-0.5 * um * um) / _SQRT_2PI
    c, d = mu - chi - v, mu + chi - v
    # a > chi and a < -chi branches, then the dead zone where eta = 0
    return (
        c * c * q_up + 2.0 * c * tau * p_up + tau * tau * (q_up + up * p_up)
        + d * d * q_mum - 2.0 * d * tau * p_um + tau * tau * (q_mum - um * p_um)
        + v * v * (q_um - q_up)
    )


def gauss_expect_e(mean: float, spread: float, threshold: float) -> float:
    """E_H[e(mean + spread*H; threshold)] for H standard normal, in closed form.

    mean must be finite; spread and threshold positive and finite.
    """
    return _gauss_moments(*_check_gauss_args(mean, spread, threshold))[0]


def gauss_expect_eta(mean: float, spread: float, threshold: float) -> float:
    """E_H[eta(mean + spread*H; threshold)] for H standard normal, in closed form.

    mean must be finite; spread and threshold positive and finite.
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
