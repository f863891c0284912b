"""Asymptotic predictions via a deterministic scalar min-max problem.

The high-dimensional LASSO with a partially known Gaussian measurement matrix
admits an asymptotic description through the saddle point (tau*, beta*) of

    D(tau, beta) = beta*tau*(delta - 1)/2 + beta*sigma_z^2/(2 tau) - beta^2/4
                 + beta*eps^2*E[X^2]/(2 tau)
                 + (beta/tau) * E[e(gamma*X + tau*H; 2*lambda*tau/beta)],

minimized over tau > 0 and maximized over beta > 0, with X drawn from the
signal prior and H standard normal.  From the saddle point follow the limiting
mean squared error and the per-entry support-recovery probabilities at a hard
threshold xi.

The saddle is a root of the closed-form gradient of D: at each tau the
inner root solves dD/dbeta = 0, and the outer root solves dD/dtau = 0 along
that curve, where it is the derivative of tau -> max_beta D.  One
safeguarded Newton search (rtsafe, Press et al., Numerical Recipes 9.4)
serves both: it takes the Newton point when that lies inside the
sign-change bracket and bisects otherwise.  Both slopes are closed forms from
the same per-atom moments as the gradient: the inner one is -d2D/dbeta2, and
the outer one is the total derivative H_tt - H_tb^2 / H_bb along beta(tau), H
the Hessian of D, taken at the inner search's last evaluation.  The outer
search starts from tau0 = sqrt((sigma_z^2 + E[X^2])/delta), its root in the
limit lambda -> inf, where the estimate is zero; each inner search starts
from the previous outer iterate's beta when that lies inside its analytic
bracket, so near the saddle it takes one or two evaluations.  A solution is
returned only when its scaled stationarity residual is within SADDLE_TOL of
D.  The optimal lambda is found by Brent's minimiser on a fixed interval,
and only when it lies inside that interval.
Non-convergence raises instead of returning a best-effort result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .kernels import _check_positive, q_function
from .prior import Prior, _prior_moments, prior_expect_e, prior_expect_eta_x0

__all__ = [
    "ModelConfig",
    "ScalarSolution",
    "PredictionReport",
    "NonConvergenceError",
    "brent_min",
    "bracketed_root",
    "objective_D",
    "maximize_over_beta",
    "solve_scalar",
    "predict_mse",
    "predict_support",
    "predict_report",
    "optimal_lambda",
]

# Brent's golden-section fraction (3 - sqrt 5)/2 and the square root of the
# float spacing at 1, his floor on a step relative to |x|
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_SQRT_EPS = math.sqrt(2.0 ** -52)

ROOT_REL_TOL = 1e-12
ROOT_MAX_EVALS = 100
OUTER_MAX_ITERS = 200
BRACKET_CAP = 1e6
SADDLE_TOL = 1e-9


class NonConvergenceError(RuntimeError):
    """A search exhausted its budget or a saddle failed its residual check.

    Carries the last iterate so callers can inspect how far the solve got.
    """

    def __init__(self, message: str, tau: float | None = None, beta: float | None = None):
        super().__init__(message)
        self.tau = tau
        self.beta = beta


@dataclass(frozen=True)
class ModelConfig:
    """Asymptotic problem parameters.

    delta    measurements per unknown (m/n limit), positive
    kappa    sparsity ratio (k/n limit), in (0, 1)
    eps2     variance of the measurement-matrix error, in [0, 1)
    sigma_z2 observation noise variance, positive
    lam      l1 regularization weight, positive
    """

    delta: float
    kappa: float
    eps2: float
    sigma_z2: float
    lam: float

    def __post_init__(self) -> None:
        for name in ("delta", "kappa", "eps2", "sigma_z2", "lam"):
            object.__setattr__(self, name, float(getattr(self, name)))
        # in declaration order; the range tests reject NaN and +-inf too
        _check_positive("delta", self.delta)
        if not (0.0 < self.kappa < 1.0):
            raise ValueError(f"kappa must be in (0, 1), got {self.kappa}")
        if not (0.0 <= self.eps2 < 1.0):
            raise ValueError(f"eps2 must be in [0, 1), got {self.eps2}")
        _check_positive("sigma_z2", self.sigma_z2)
        _check_positive("lam", self.lam)

    @property
    def gamma(self) -> float:
        """Scale of the known part of the measurement matrix: sqrt(1 - eps2)."""
        return math.sqrt(1.0 - self.eps2)

    @property
    def snr(self) -> float:
        """Signal-to-noise ratio kappa / sigma_z2."""
        return self.kappa / self.sigma_z2

    @classmethod
    def from_snr(cls, delta: float, kappa: float, eps2: float, snr: float, lam: float) -> "ModelConfig":
        """Build a config specifying the noise through SNR: sigma_z2 = kappa / snr.

        Raises ValueError naming snr when snr is not positive and finite, or
        when kappa / snr is not (a tiny snr overflows it, a huge one underflows);
        a bad delta, kappa, eps2 or lam is reported first, by the config's rules.
        """
        snr = _check_positive("snr", snr)
        cfg = cls(delta=delta, kappa=kappa, eps2=eps2, sigma_z2=1.0, lam=lam)
        sigma_z2 = cfg.kappa / snr
        if not 0.0 < sigma_z2 < math.inf:
            raise ValueError(
                f"kappa / snr must be positive and finite, got {cfg.kappa} / {snr} = {sigma_z2}")
        return replace(cfg, sigma_z2=sigma_z2)

    def with_lam(self, lam: float) -> "ModelConfig":
        return replace(self, lam=lam)


@dataclass(frozen=True)
class ScalarSolution:
    """Saddle point of the scalar min-max problem, certified by its residual.

    outer_iters counts the tau root's Newton-search evaluations (one beta
    root each), inner_iters_total the beta roots' gradient evaluations.
    residual is (|tau dD/dtau|, |beta dD/dbeta|), at most SADDLE_TOL * D:
    solve_scalar raises rather than return a saddle that fails this.
    """

    tau_star: float
    beta_star: float
    objective: float
    outer_iters: int
    inner_iters_total: int
    residual: tuple[float, float]


@dataclass(frozen=True)
class PredictionReport:
    """Theoretical MSE and support-recovery probabilities at threshold xi."""

    mse: float
    phi_on: float
    phi_off: float
    xi: float
    solution: ScalarSolution


def objective_D(tau: float, beta: float, cfg: ModelConfig, p: Prior) -> float:
    """Evaluate the scalar min-max objective at (tau, beta).

    The eps^2 term uses the prior's second moment, which equals kappa for the
    sparse Bernoulli prior.
    """
    _check_positive("tau", tau)
    _check_positive("beta", beta)
    chi = 2.0 * cfg.lam * tau / beta
    expect_e = prior_expect_e(p, cfg.gamma, tau, chi)
    return (
        0.5 * beta * tau * (cfg.delta - 1.0)
        + 0.5 * beta * cfg.sigma_z2 / tau
        - 0.25 * beta * beta
        + 0.5 * beta * cfg.eps2 * p.second_moment() / tau
        + (beta / tau) * expect_e
    )


def brent_min(f, lo: float, hi: float, tol: float, name: str) -> tuple[float, float, int]:
    """Minimum of f strictly inside (lo, hi) by Brent's method.

    Brent (1973), Algorithms for Minimization without Derivatives, ch. 5:
    each step takes the minimum of the parabola through the three best points
    when that lies inside the bracket and moves less than half the step before
    last, and a golden-section step into the larger side of the bracket
    otherwise; no step is shorter than t = sqrt(eps) |x| + tol/3.  It stops
    when the best point x lies within 2t - (b - a)/2 of the bracket's
    midpoint, so within 2t of a local minimum; f is never evaluated at lo
    or hi.  Returns (x, f(x), evaluations).  Raises NonConvergenceError, naming
    the search by `name`, when OUTER_MAX_ITERS steps do not reach that
    test, and when x ends within 2t of lo or hi, where a minimum at or beyond
    that end cannot be told from one inside.
    """
    a, b = float(lo), float(hi)
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    evals = 1
    step = last = 0.0  # the latest step and the one before it (Brent's d and e)
    while True:
        mid = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + tol / 3.0
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            break
        if evals > OUTER_MAX_ITERS:
            raise NonConvergenceError(
                f"{name} search did not converge within {OUTER_MAX_ITERS} iterations")
        p = q = 0.0
        if abs(last) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
        if abs(p) < abs(0.5 * q * last) and q * (a - x) < p < q * (b - x):
            last, step = step, p / q
            if x + step - a < tol2 or b - (x + step) < tol2:
                step = tol1 if x <= mid else -tol1
        else:
            last = (b if x < mid else a) - x
            step = _GOLDEN * last
        u = x + (step if abs(step) >= tol1 else math.copysign(tol1, step))
        fu = f(u)
        evals += 1
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    for end in (lo, hi):
        if abs(x - end) <= tol2:
            raise NonConvergenceError(
                f"{name} minimum not certified inside ({lo:g}, {hi:g}): the search ended "
                f"at {x:.9g}, within {tol2:.2g} of the interval end {end:g}")
    return x, fx, evals


def bracketed_root(f, lo: float, hi: float, name: str, *, start: float = math.nan,
                   **context) -> tuple[float, int]:
    """Root of an increasing f on [lo, inf), with f(lo) < 0, by safeguarded Newton steps.

    f returns (value, slope).  The search evaluates start if lo < start < hi,
    and lo otherwise; each point then replaces the end of [lo, hi] on its side
    of the sign change.  The next point is the Newton point of the last one
    when that lies strictly inside the bracket and, with both ends known, the
    step is at most half the move before last (Press et al.'s test, which a
    search bouncing across the root fails).  Otherwise it is the end on the
    root's side if f is not yet known there: lo, where f must be negative, or
    hi, which doubles while f(hi) < 0, up to BRACKET_CAP times its starting
    value.  With both ends known it is the midpoint.  Stops when f vanishes,
    when the Newton step is at most ROOT_REL_TOL times the point, or when the
    bracket is at most ROOT_REL_TOL * lo wide; returns (last point, number of
    f evaluations).  Otherwise raises NonConvergenceError, whose `name`
    attribute ("tau" or "beta") carries the last point and `context` the rest.
    """

    def failure(message: str, last: float) -> NonConvergenceError:
        where = "".join(f" at {k}={v:g}" for k, v in context.items())
        return NonConvergenceError(message + where, **{name: last}, **context)

    cap = BRACKET_CAP * hi
    x = start if lo < start < hi else lo
    lo_known = hi_known = False
    evals = 0
    prev = prev2 = math.nan  # the two points before x; a nan move stalls nothing
    while evals < ROOT_MAX_EVALS:
        fx, slope = f(x)
        evals += 1
        if fx < 0.0:
            if x == hi:
                hi = 2.0 * hi
                if hi > cap:
                    raise failure(f"{name} bracket exceeded cap {cap:g}", hi)
            lo, lo_known = x, True
        elif x == lo:  # evaluated only while f(lo) is unknown
            raise failure(f"{name} root is not above {lo:g}", lo)
        elif fx > 0.0:
            hi, hi_known = x, True
        elif fx != 0.0:
            raise failure(f"{name} root search met a NaN", x)
        else:
            return x, evals
        step = fx / slope if slope > 0.0 else math.nan
        closed = lo_known and hi_known and hi - lo <= ROOT_REL_TOL * lo
        if abs(step) <= ROOT_REL_TOL * x or closed:
            return x, evals
        x_next = x - step
        stalled = lo_known and hi_known and abs(step) > 0.5 * abs(prev - prev2)
        prev2, prev = prev, x
        if lo < x_next < hi and not stalled:
            x = x_next
        elif not hi_known:
            x = hi
        elif not lo_known:
            x = lo
        else:
            x = 0.5 * (lo + hi)
    raise failure(f"{name} root not found within {ROOT_MAX_EVALS} evaluations", x)


def _derivatives(tau: float, beta: float, cfg: ModelConfig,
                 p: Prior) -> tuple[float, float, float, float]:
    """dD/dtau, dD/dbeta and the slopes of the two roots, in closed form.

    With a = gamma*X + tau*H, chi = 2 lam tau / beta, s^2 = sigma_z^2 + eps^2 E[X^2],
    P = P(|a| <= chi) and w = (s^2/2 + G) / tau, where G = E e(a; chi) - chi E|eta(a; chi)|
    = E min(a^2, chi^2)/2, the envelope theorem (de/da = a - eta, de/dchi = |eta|)
    and Stein's lemma give
        dD/dbeta = tau (delta - 1)/2 + w - beta/2,
        dD/dtau  = beta ((delta - 1)/2 + P - w/tau).
    G has the partials dG/dchi = chi (1 - P) and dG/dtau = tau (P - chi dP/dchi),
    so the beta root's slope, d(-dD/dbeta)/dbeta = -H_bb, is
    1/2 + chi^2 (1 - P) / (tau beta), and the tau root's slope along the curve
    beta(tau) on which dD/dbeta is constant is H_tt - H_tb^2 / H_bb, with H the
    Hessian of D.  Returns (dD/dtau, dD/dbeta, -H_bb, H_tt - H_tb^2 / H_bb).
    """
    chi = 2.0 * cfg.lam * tau / beta
    e, abs_eta, inside, inside_chi, inside_tau = _prior_moments(p, cfg.gamma, tau, chi)
    w = (0.5 * (cfg.sigma_z2 + cfg.eps2 * p.second_moment()) + e - chi * abs_eta) / tau
    half = 0.5 * (cfg.delta - 1.0)
    clipped = chi * chi * (1.0 - inside) / tau  # dG/dchi * dchi/dtau
    slope_beta = 0.5 + clipped / beta
    # total tau-derivatives at fixed beta (dchi/dtau = chi/tau)
    w_tau = (tau * (inside - chi * inside_chi) + clipped - w) / tau
    h_tb = half + w_tau
    h_tt = beta * (inside_tau + inside_chi * chi / tau - (w_tau - w / tau) / tau)
    return (beta * (half + inside - w / tau), tau * half + w - 0.5 * beta,
            slope_beta, h_tt + h_tb * h_tb / slope_beta)


def _beta_root(tau: float, cfg: ModelConfig, p: Prior, start: float = math.nan
               ) -> tuple[float, tuple[float, float, float, float], int]:
    """Root of dD/dbeta at tau: (beta, `_derivatives` at (tau, beta), evaluations).

    The root solves beta = tau (delta - 1) + (s^2 + E min(a^2, chi^2))/tau,
    chi = 2 lam tau / beta, so it lies below tau delta + (sigma_z^2 + E[X^2])/tau
    and above both tau (delta - 1) + s^2/tau and min(b, tau delta/2 + s^2/tau),
    b = lam sqrt(8 delta/3): |a| stochastically dominates |tau H| (Anderson's
    inequality), and (x - c^2)_+ <= x^2/(4 c^2) gives E min(H^2, c^2) >=
    1 - 3/(4 c^2), so with c = 2 lam/beta a root below b has E min(a^2, chi^2)
    >= tau^2 (1 - delta/2).  The second bound is positive and scales with lam,
    as the root does when lam -> 0 at delta < 1.  A cold search starts from
    half the larger bound, since at small lambda the root can sit on the first
    one itself, within rounding of the gradient's terms; a start inside the
    bracket is evaluated first.  The derivatives are those of the search's
    last evaluation, which is at the returned beta.
    """
    last = ()

    def f(beta: float) -> tuple[float, float]:
        nonlocal last
        last = _derivatives(tau, beta, cfg, p)
        return -last[1], last[2]

    ex2 = p.second_moment()
    noise = (cfg.sigma_z2 + cfg.eps2 * ex2) / tau
    hi = tau * cfg.delta + (cfg.sigma_z2 + ex2) / tau
    lo = 0.5 * max(tau * (cfg.delta - 1.0) + noise,
                   min(cfg.lam * math.sqrt(8.0 * cfg.delta / 3.0), 0.5 * tau * cfg.delta + noise))
    beta, evals = bracketed_root(f, lo, hi, "beta", start=start, tau=tau)
    return beta, last, evals


def maximize_over_beta(tau: float, cfg: ModelConfig, p: Prior) -> tuple[float, float, int]:
    """Maximize the concave beta -> D(tau, beta): (argmax, value, gradient evaluations)."""
    _check_positive("tau", tau)
    beta, _, evals = _beta_root(tau, cfg, p)
    return beta, objective_D(tau, beta, cfg, p), evals


def solve_scalar(cfg: ModelConfig, p: Prior) -> ScalarSolution:
    """Solve the scalar min-max problem for (tau*, beta*).

    tau* is the root of dD/dtau(tau, beta(tau)), beta(tau) the root of dD/dbeta
    at tau, and beta* = beta(tau*).  The tau search starts at
    tau0 = sqrt((sigma_z^2 + E[X^2])/delta), which is tau* as lambda -> inf:
    there the estimate is zero, so delta tau*^2 - sigma_z^2 = E[X^2].  Its
    bracket is [lo, max(2 lo, 2 tau0)], lo half of sigma_z/sqrt(delta), below
    any achievable error scale.  tau0 depends on the configuration only, so
    each solve is independent of any other lambda.  The residual is read
    from the tau search's last gradient evaluation, at (tau*, beta*).  Raises
    NonConvergenceError when a root search fails or the scaled residual
    exceeds SADDLE_TOL * D(tau*, beta*); that message names delta, and says
    so when the tau slope (about delta^2) or tau dD/dtau overflowed, as it
    does from delta of about 1e154 up.
    """
    inner_total = 0
    beta, last = math.nan, ()

    def d_tau(tau: float) -> tuple[float, float]:
        nonlocal inner_total, beta, last
        beta, last, evals = _beta_root(tau, cfg, p, start=beta)
        inner_total += evals
        return last[0], last[3]

    lo = 0.5 * math.sqrt(cfg.sigma_z2 / cfg.delta)
    tau0 = math.sqrt((cfg.sigma_z2 + p.second_moment()) / cfg.delta)
    tau, outer_evals = bracketed_root(d_tau, lo, max(2.0 * lo, 2.0 * tau0), "tau", start=tau0)
    g_tau, g_beta, _, slope = last
    value = objective_D(tau, beta, cfg, p)
    residual = (abs(tau * g_tau), abs(beta * g_beta))
    if not max(residual) <= SADDLE_TOL * value:
        overflow = not (math.isfinite(slope) and math.isfinite(max(residual)))
        raise NonConvergenceError(
            f"saddle residual {max(residual):.3g} exceeds {SADDLE_TOL:g} * D = {value:.6g} "
            f"at delta={cfg.delta:g}"
            + ("; the tau slope (about delta^2) or tau dD/dtau (about tau*beta*delta) "
               "overflowed" if overflow else ""), tau=tau, beta=beta)
    return ScalarSolution(tau_star=tau, beta_star=beta, objective=value,
                          outer_iters=outer_evals, inner_iters_total=inner_total, residual=residual)


def predict_mse(sol: ScalarSolution, cfg: ModelConfig, p: Prior) -> float:
    """Limiting mean squared error at the saddle point.

    delta*tau*^2 - sigma_z^2 plus a correction proportional to (gamma - 1)
    that vanishes when the measurement matrix is perfectly known.
    """
    chi = 2.0 * cfg.lam * sol.tau_star / sol.beta_star
    correction = 2.0 * (cfg.gamma - 1.0) * prior_expect_eta_x0(p, cfg.gamma, sol.tau_star, chi)
    return cfg.delta * sol.tau_star ** 2 - cfg.sigma_z2 + correction


def predict_support(
    sol: ScalarSolution, cfg: ModelConfig, p: Prior, xi: float
) -> tuple[float, float]:
    """Limiting on/off-support detection probabilities at hard threshold xi.

    phi_off = 1 - 2 Q(xi/tau* + 2 lam/beta*).  phi_on averages, over the
    renormalized nonzero atoms v, the two-sided tail
    Q((xi + gamma*v)/tau* + 2 lam/beta*) + Q((xi - gamma*v)/tau* + 2 lam/beta*);
    for a sparse Bernoulli prior this is the single-atom v = 1 expression.
    """
    _check_positive("xi", xi)
    tau, beta = sol.tau_star, sol.beta_star
    shift = 2.0 * cfg.lam / beta
    phi_off = 1.0 - 2.0 * q_function(xi / tau + shift)
    phi_on = sum(
        w * (q_function((xi + cfg.gamma * v) / tau + shift)
             + q_function((xi - cfg.gamma * v) / tau + shift))
        for v, w in p.nonzero_atoms()
    )
    return phi_on, phi_off


def predict_report(cfg: ModelConfig, p: Prior, xi: float) -> PredictionReport:
    """Solve the scalar problem and package MSE and support probabilities."""
    sol = solve_scalar(cfg, p)
    phi_on, phi_off = predict_support(sol, cfg, p, xi)
    return PredictionReport(
        mse=predict_mse(sol, cfg, p),
        phi_on=phi_on,
        phi_off=phi_off,
        xi=xi,
        solution=sol,
    )


def optimal_lambda(
    cfg: ModelConfig, p: Prior, search_interval: tuple[float, float]
) -> tuple[float, float]:
    """Minimize the predicted MSE over the regularization weight.

    cfg.lam is ignored.  brent_min searches search_interval to an absolute
    tolerance of 1e-6, so lambda_opt lies within about 7e-7 of a local
    minimiser of the predicted MSE, and (lambda_opt, mse_opt) is returned only
    when it lies inside the interval.  Raises NonConvergenceError when the
    search ends within its tolerance of either end, naming that end, or when
    it takes more than OUTER_MAX_ITERS steps.
    """
    lo, hi = float(search_interval[0]), float(search_interval[1])
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got ({lo}, {hi})")

    def f(lam: float) -> float:
        c = cfg.with_lam(lam)
        return predict_mse(solve_scalar(c, p), c, p)

    lam_opt, mse_opt, _ = brent_min(f, lo, hi, 1e-6, "lambda")
    return lam_opt, mse_opt
