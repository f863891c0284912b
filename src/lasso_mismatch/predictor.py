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
D.  The optimal lambda is found by golden section on a fixed interval.
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
    "golden_section_min",
    "bracketed_root",
    "objective_D",
    "maximize_over_beta",
    "solve_scalar",
    "predict_mse",
    "predict_support",
    "predict_report",
    "optimal_lambda",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

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


def golden_section_min(f, lo: float, hi: float, rel_tol: float, max_iters: int):
    """Golden-section minimization of a unimodal f on [lo, hi].

    The bracket shrinks until its width is at most rel_tol * max(1, |midpoint|).
    Returns (argmin, value, iterations, converged).
    """
    a, b = float(lo), float(hi)
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = f(c)
    fd = f(d)
    iters = 0
    while (b - a) > rel_tol * max(1.0, abs(0.5 * (a + b))) and iters < max_iters:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
        iters += 1
    x = 0.5 * (a + b)
    converged = (b - a) <= rel_tol * max(1.0, abs(x))
    return x, f(x), iters, converged


def bracketed_root(f, lo: float, hi: float, name: str, *, start: float = math.nan,
                   **context) -> tuple[float, int]:
    """Root of an increasing f on [lo, inf), with f(lo) < 0, by safeguarded Newton steps.

    f returns (value, slope).  The search evaluates start if lo < start < hi,
    and lo otherwise; each point then replaces the end of [lo, hi] on its side
    of the sign change.  The next point is the Newton point of the last one
    when that lies strictly inside the bracket.  Otherwise it is the end on the
    root's side if f is not yet known there: lo, where f must be negative, or
    hi, which doubles while f(hi) < 0, up to BRACKET_CAP.  With both ends
    known it is the midpoint.  Stops when f vanishes, when the Newton step is
    at most ROOT_REL_TOL times the point, or when the bracket is at most
    ROOT_REL_TOL * lo wide; returns (last point, number of f evaluations).
    Otherwise raises NonConvergenceError, whose `name` attribute ("tau" or
    "beta") carries the last point and `context` the rest.
    """

    def failure(message: str, last: float) -> NonConvergenceError:
        where = "".join(f" at {k}={v:g}" for k, v in context.items())
        return NonConvergenceError(message + where, **{name: last}, **context)

    if hi > BRACKET_CAP:
        raise failure(f"{name} bracket exceeded cap {BRACKET_CAP:g}", hi)
    x = start if lo < start < hi else lo
    lo_known = hi_known = False
    evals = 0
    while evals < ROOT_MAX_EVALS:
        fx, slope = f(x)
        evals += 1
        if fx < 0.0:
            if x == hi:
                hi = 2.0 * hi
                if hi > BRACKET_CAP:
                    raise failure(f"{name} bracket exceeded cap {BRACKET_CAP:g}", hi)
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
        if lo < x_next < hi:
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


def _beta_root(tau: float, cfg: ModelConfig, p: Prior,
               start: float = math.nan) -> tuple[float, float, float, int]:
    """Root of dD/dbeta at tau: (beta, dD/dtau and its total tau-slope there, evaluations).

    e - chi |eta| = min(a^2, chi^2)/2 lies in [0, a^2/2], so the root lies in
    [tau (delta - 1) + s^2/tau, tau delta + (sigma_z^2 + E[X^2])/tau].  A cold
    search starts from half the lower bound, since at small lambda the root
    can sit on the bound itself, within rounding of the gradient's terms; a
    start inside that bracket is evaluated first.  The dD/dtau values are
    those of the search's last evaluation.
    """
    at_root = (math.nan, math.nan)

    def f(beta: float) -> tuple[float, float]:
        nonlocal at_root
        d_tau, d_beta, slope_beta, slope_tau = _derivatives(tau, beta, cfg, p)
        at_root = (d_tau, slope_tau)
        return -d_beta, slope_beta

    ex2 = p.second_moment()
    hi = tau * cfg.delta + (cfg.sigma_z2 + ex2) / tau
    lo = max(0.5 * (tau * (cfg.delta - 1.0) + (cfg.sigma_z2 + cfg.eps2 * ex2) / tau), 1e-9 * hi)
    beta, evals = bracketed_root(f, lo, hi, "beta", start=start, tau=tau)
    return beta, at_root[0], at_root[1], evals


def maximize_over_beta(tau: float, cfg: ModelConfig, p: Prior) -> tuple[float, float, int]:
    """Maximize the concave beta -> D(tau, beta): (argmax, value, gradient evaluations)."""
    _check_positive("tau", tau)
    beta, _, _, evals = _beta_root(tau, cfg, p)
    return beta, objective_D(tau, beta, cfg, p), evals


def solve_scalar(cfg: ModelConfig, p: Prior) -> ScalarSolution:
    """Solve the scalar min-max problem for (tau*, beta*).

    tau* is the root of dD/dtau(tau, beta(tau)), beta(tau) the root of dD/dbeta
    at tau, and beta* = beta(tau*).  The tau search starts at
    tau0 = sqrt((sigma_z^2 + E[X^2])/delta), which is tau* as lambda -> inf:
    there the estimate is zero, so delta tau*^2 - sigma_z^2 = E[X^2].  Its
    bracket is [lo, max(2 lo, 2 tau0)], lo half of sigma_z/sqrt(delta), below
    any achievable error scale.  tau0 depends on the configuration only, so
    each solve is independent of any other lambda.  Raises
    NonConvergenceError when a root search fails or the scaled residual
    exceeds SADDLE_TOL * D(tau*, beta*).
    """
    inner_total = 0
    beta = math.nan

    def d_tau(tau: float) -> tuple[float, float]:
        nonlocal inner_total, beta
        beta, grad, slope, evals = _beta_root(tau, cfg, p, start=beta)
        inner_total += evals
        return grad, slope

    lo = max(1e-6, 0.5 * math.sqrt(cfg.sigma_z2 / cfg.delta))
    tau0 = math.sqrt((cfg.sigma_z2 + p.second_moment()) / cfg.delta)
    tau, outer_evals = bracketed_root(d_tau, lo, max(2.0 * lo, 2.0 * tau0), "tau", start=tau0)
    g_tau, g_beta, _, _ = _derivatives(tau, beta, cfg, p)
    value = objective_D(tau, beta, cfg, p)
    residual = (abs(tau * g_tau), abs(beta * g_beta))
    if not max(residual) <= SADDLE_TOL * value:
        raise NonConvergenceError(f"saddle residual {max(residual):.3g} exceeds "
                                  f"{SADDLE_TOL:g} * D = {value:.6g}", tau=tau, beta=beta)
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

    cfg.lam is ignored; the search runs golden_section_min on search_interval
    down to bracket width 1e-4 * max(1, lambda), which is an absolute 1e-4
    for lambda_opt <= 1, and returns (lambda_opt, mse_opt).  It raises
    NonConvergenceError when that takes more than OUTER_MAX_ITERS steps.
    """
    lo, hi = float(search_interval[0]), float(search_interval[1])
    if not (0.0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got ({lo}, {hi})")

    def f(lam: float) -> float:
        c = cfg.with_lam(lam)
        return predict_mse(solve_scalar(c, p), c, p)

    lam_opt, mse_opt, _, ok = golden_section_min(f, lo, hi, 1e-4, OUTER_MAX_ITERS)
    if not ok:
        raise NonConvergenceError(
            f"lambda search did not converge within {OUTER_MAX_ITERS} iterations")
    return lam_opt, mse_opt
