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

The saddle is located by nested derivative-free golden-section searches: the
outer one over tau, the inner one over beta.  Both run through one expanding
golden-section helper, which doubles the upper end of the bracket while the
function still falls past it and then searches the bracket.  The optimal
lambda is found by the same golden section on a fixed interval.
Non-convergence raises instead of returning a best-effort result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .kernels import q_function
from .prior import Prior, prior_expect_e, prior_expect_eta_x0

__all__ = [
    "ModelConfig",
    "ScalarSolution",
    "PredictionReport",
    "NonConvergenceError",
    "golden_section_min",
    "objective_D",
    "maximize_over_beta",
    "solve_scalar",
    "predict_mse",
    "predict_support",
    "predict_report",
    "optimal_lambda",
]

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0

INNER_REL_TOL = 1e-10
OUTER_REL_TOL = 1e-9
INNER_MAX_ITERS = 200
OUTER_MAX_ITERS = 200
BRACKET_CAP = 1e6
_BETA_BRACKET = (1e-6, 10.0)
_TAU_HI_INIT = 10.0


class NonConvergenceError(RuntimeError):
    """A nested search exhausted its iteration or bracket budget.

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
            v = float(getattr(self, name))
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
            object.__setattr__(self, name, v)
        if self.delta <= 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not (0.0 < self.kappa < 1.0):
            raise ValueError(f"kappa must be in (0, 1), got {self.kappa}")
        if not (0.0 <= self.eps2 < 1.0):
            raise ValueError(f"eps2 must be in [0, 1), got {self.eps2}")
        if self.sigma_z2 <= 0.0:
            raise ValueError(f"sigma_z2 must be positive, got {self.sigma_z2}")
        if self.lam <= 0.0:
            raise ValueError(f"lam must be positive, got {self.lam}")

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
        """Build a config specifying the noise through SNR: sigma_z2 = kappa / snr."""
        if snr <= 0.0:
            raise ValueError(f"snr must be positive, got {snr}")
        return cls(delta=delta, kappa=kappa, eps2=eps2, sigma_z2=kappa / snr, lam=lam)

    def with_lam(self, lam: float) -> "ModelConfig":
        return replace(self, lam=lam)


@dataclass(frozen=True)
class ScalarSolution:
    """Saddle point of the scalar min-max problem with convergence metadata."""

    tau_star: float
    beta_star: float
    objective: float
    converged: bool
    outer_iters: int
    inner_iters_total: int


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
    if tau <= 0.0 or not math.isfinite(tau):
        raise ValueError(f"tau must be positive and finite, got {tau}")
    if beta <= 0.0 or not math.isfinite(beta):
        raise ValueError(f"beta must be positive and finite, got {beta}")
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


def _expanding_golden_min(f, lo: float, hi: float, rel_tol: float, max_iters: int,
                          name: str, **context):
    """Minimize f over [lo, inf) by golden section on an expanding bracket.

    The upper end hi doubles while f still falls past it, up to BRACKET_CAP;
    golden_section_min then searches [lo, hi].  Returns (argmin, value,
    iterations).  Running past the cap or out of iterations raises
    NonConvergenceError carrying the last `name` iterate and `context`.
    """

    def failure(message: str, last: float) -> NonConvergenceError:
        where = "".join(f" at {k}={v:g}" for k, v in context.items())
        return NonConvergenceError(message + where, **{name: last}, **context)

    f_hi = f(hi)
    while True:
        f_next = f(2.0 * hi)
        if f_next >= f_hi:
            hi = 2.0 * hi
            break
        hi *= 2.0
        f_hi = f_next
        if hi > BRACKET_CAP:
            raise failure(f"{name} bracket expansion exceeded cap {BRACKET_CAP:g}", hi)
    x, value, iters, ok = golden_section_min(f, lo, hi, rel_tol, max_iters)
    if not ok:
        raise failure(f"{name} search did not converge within {max_iters} iterations", x)
    return x, value, iters


def maximize_over_beta(tau: float, cfg: ModelConfig, p: Prior) -> tuple[float, float, int]:
    """Maximize beta -> D(tau, beta) over beta > 0; returns (argmax, value, golden iterations)."""

    def neg(beta: float) -> float:
        return -objective_D(tau, beta, cfg, p)

    lo, hi = _BETA_BRACKET
    beta, neg_val, iters = _expanding_golden_min(
        neg, lo, hi, INNER_REL_TOL, INNER_MAX_ITERS, "beta", tau=tau)
    return beta, -neg_val, iters


def solve_scalar(cfg: ModelConfig, p: Prior) -> ScalarSolution:
    """Solve the scalar min-max problem for (tau*, beta*).

    The outer search minimizes tau -> max_beta D(tau, beta) by golden section
    on an expanding bracket; the lower end sits at half of sigma_z/sqrt(delta),
    below any achievable error scale.  The search's closing evaluation at
    tau* supplies beta*.
    """
    inner_total = 0
    beta_last = math.nan

    def g(tau: float) -> float:
        nonlocal inner_total, beta_last
        beta_last, value, iters = maximize_over_beta(tau, cfg, p)
        inner_total += iters
        return value

    lo = max(1e-6, 0.5 * math.sqrt(cfg.sigma_z2 / cfg.delta))
    tau, value, outer_iters = _expanding_golden_min(
        g, lo, _TAU_HI_INIT, OUTER_REL_TOL, OUTER_MAX_ITERS, "tau")
    return ScalarSolution(
        tau_star=tau,
        beta_star=beta_last,
        objective=value,
        converged=True,
        outer_iters=outer_iters,
        inner_iters_total=inner_total,
    )


def predict_mse(sol: ScalarSolution, cfg: ModelConfig, p: Prior) -> float:
    """Limiting mean squared error at the saddle point.

    delta*tau*^2 - sigma_z^2 plus a correction proportional to (gamma - 1)
    that vanishes when the measurement matrix is perfectly known.
    """
    if not sol.converged:
        raise ValueError("prediction requires a converged scalar solution")
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
    if not sol.converged:
        raise ValueError("prediction requires a converged scalar solution")
    if xi <= 0.0 or not math.isfinite(xi):
        raise ValueError(f"xi must be positive and finite, got {xi}")
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
