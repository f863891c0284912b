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

The saddle is a root of the closed-form gradient of D, found by Newton's
method in (tau, beta): each step evaluates the gradient and the Hessian's
closed forms once, from the same per-atom moments, and eliminates beta, so
the tau step divides by the Schur complement H_tt - H_tb^2 / H_bb.  A fall
is damped, x -> x^2 / (x - move), so both variables stay positive and can
fall by decades in one step.  The start is the lambda -> inf limit of both,
where the estimate is zero.  A solution is returned only when its scaled
stationarity residual is within SADDLE_TOL of D.  The optimal lambda is
found by Brent's minimiser on a fixed interval, and only when it lies
inside that interval.
Non-convergence raises instead of returning a best-effort result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .kernels import _check_positive, _gauss_sq_error, q_function
from .prior import Prior, _prior_moments, prior_expect_e

__all__ = [
    "ModelConfig",
    "ScalarSolution",
    "PredictionReport",
    "NonConvergenceError",
    "brent_min",
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
SADDLE_TOL = 1e-9
_LAMBDA_TOL = 1e-6  # brent_min's absolute tolerance on lambda


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

    gamma = sqrt(1 - eps2), the scale of the known part of the measurement
    matrix, is computed once here: the saddle solver reads it on every
    gradient.
    """

    delta: float
    kappa: float
    eps2: float
    sigma_z2: float
    lam: float
    gamma: float = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "gamma", math.sqrt(1.0 - self.eps2))

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
        """This configuration at regularization weight lam, equal to the constructor's result.

        lam is checked as the constructor checks it and stored as a float.  The
        other fields and gamma are copied from self, which was checked when it
        was built, so a sweep or a lambda search, which make one per lambda,
        do not check them again.
        """
        cfg = object.__new__(type(self))
        cfg.__dict__.update(self.__dict__, lam=_check_positive("lam", lam))
        return cfg


@dataclass(frozen=True)
class ScalarSolution:
    """Saddle point of the scalar min-max problem, certified by its residual.

    inner_iters_total counts the joint Newton steps, one gradient evaluation
    each.
    residual is (|tau dD/dtau|, |beta dD/dbeta|), at most SADDLE_TOL * D:
    solve_scalar raises rather than return a saddle that fails this.
    """

    tau_star: float
    beta_star: float
    objective: float
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


def brent_min(f, lo: float, hi: float) -> tuple[float, float, int]:
    """Minimum of f(lambda) strictly inside (lo, hi) by Brent's method.

    Brent (1973), Algorithms for Minimization without Derivatives, ch. 5:
    each step takes the minimum of the parabola through the three best points
    when that lies inside the bracket and moves less than half the step before
    last, and a golden-section step into the larger side of the bracket
    otherwise; no step is shorter than t = sqrt(eps) |x| + _LAMBDA_TOL/3.  It
    stops when the best point x lies within 2t - (b - a)/2 of the bracket's
    midpoint, so within 2t of a local minimum; f is never evaluated at lo
    or hi.  Returns (x, f(x), evaluations).  Raises NonConvergenceError when
    OUTER_MAX_ITERS steps do not reach that test, and when x ends within 2t
    of lo or hi, where a minimum at or beyond that end cannot be told from
    one inside.
    """
    a, b = float(lo), float(hi)
    x = w = v = a + _GOLDEN * (b - a)
    fx = fw = fv = f(x)
    evals = 1
    step = last = 0.0  # the latest step and the one before it (Brent's d and e)
    while True:
        mid = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + _LAMBDA_TOL / 3.0
        tol2 = 2.0 * tol1
        if abs(x - mid) <= tol2 - 0.5 * (b - a):
            break
        if evals > OUTER_MAX_ITERS:
            raise NonConvergenceError(
                f"lambda search did not converge within {OUTER_MAX_ITERS} iterations")
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
                f"lambda minimum not certified inside ({lo:g}, {hi:g}): the search ended "
                f"at {x:.9g}, within {tol2:.2g} of the interval end {end:g}")
    return x, fx, evals


def _derivatives(tau: float, beta: float, cfg: ModelConfig,
                 p: Prior) -> tuple[float, float, float, float, float]:
    """dD/dtau, dD/dbeta, the slopes of the two roots and dbeta/dtau, in closed form.

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
    Hessian of D.  That curve's own slope is dbeta/dtau = H_tb / (-H_bb).
    Returns (dD/dtau, dD/dbeta, -H_bb, H_tt - H_tb^2 / H_bb, H_tb / (-H_bb)).
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
    beta_tau = h_tb / slope_beta
    return (beta * (half + inside - w / tau), tau * half + w - 0.5 * beta,
            slope_beta, h_tt + h_tb * beta_tau, beta_tau)


def _beta_root(tau: float, cfg: ModelConfig, p: Prior
               ) -> tuple[float, tuple[float, float, float, float, float], int]:
    """Root of dD/dbeta at tau: (beta, `_derivatives` at (tau, beta), evaluations).

    The root solves beta = tau (delta - 1) + (s^2 + E min(a^2, chi^2))/tau,
    chi = 2 lam tau / beta, so it lies below hi = tau delta + (sigma_z^2 + E[X^2])/tau
    and above both tau (delta - 1) + s^2/tau and min(b, tau delta/2 + s^2/tau),
    b = lam sqrt(8 delta/3): |a| stochastically dominates |tau H| (Anderson's
    inequality), and (x - c^2)_+ <= x^2/(4 c^2) gives E min(H^2, c^2) >=
    1 - 3/(4 c^2), so with c = 2 lam/beta a root below b has E min(a^2, chi^2)
    >= tau^2 (1 - delta/2).  The second bound is positive and scales with lam,
    as the root does when lam -> 0 at delta < 1.  The bracket's low end lo is
    half the larger bound, since at small lambda the root can sit on the first
    one itself, within rounding of the gradient's terms.  The search starts at
    hi, the root's limit as lam -> inf, and each point replaces the bracket's
    end on its side of the root.  The next is the Newton point when that lies
    inside the bracket and, once a point below the root is known, moves at most
    half the move before last (Press et al.'s test, failed by a search that
    bounces across the root); otherwise it is lo while no point below the root
    is known, and the midpoint after that.  It stops when dD/dbeta vanishes, at
    a Newton step within ROOT_REL_TOL of the point, or at a known bracket at
    most ROOT_REL_TOL * lo wide.  It raises NonConvergenceError, with tau and
    the last beta, at a NaN, at a root not above lo or not below hi (rounding
    can break the bounds), at a point that is not positive (an underflowed
    bound) and after ROOT_MAX_EVALS evaluations.  This search is independent of
    the joint one, which `maximize_over_beta` checks.
    """
    def failure(message: str, beta: float) -> NonConvergenceError:
        return NonConvergenceError(f"beta {message} at tau={tau:g}", tau=tau, beta=beta)

    ex2 = p.second_moment()
    noise = (cfg.sigma_z2 + cfg.eps2 * ex2) / tau
    hi = tau * cfg.delta + (cfg.sigma_z2 + ex2) / tau
    lo = 0.5 * max(tau * (cfg.delta - 1.0) + noise,
                   min(cfg.lam * math.sqrt(8.0 * cfg.delta / 3.0), 0.5 * tau * cfg.delta + noise))
    beta, lo_known = hi, False
    prev = prev2 = math.nan  # the two points before beta; a nan move stalls nothing
    for evals in range(1, ROOT_MAX_EVALS + 1):
        if not beta > 0.0:
            raise failure(f"search reached the nonpositive point {beta:g}", beta)
        last = _derivatives(tau, beta, cfg, p)
        f = -last[1]
        if f < 0.0:
            lo, lo_known = beta, True
        elif math.isnan(f):
            raise failure("root search met a NaN", beta)
        elif beta == lo:  # evaluated only while no point below the root is known
            raise failure(f"root is not above {lo:g}", lo)
        elif f > 0.0:
            hi = beta
        else:
            return beta, last, evals
        step = f / last[2] if last[2] > 0.0 else math.nan
        if abs(step) <= ROOT_REL_TOL * beta or lo_known and 0.0 < hi - lo <= ROOT_REL_TOL * lo:
            return beta, last, evals
        if lo == hi:  # f(hi) < 0: rounding broke the upper bound
            raise failure(f"root is not below {hi:g}", hi)
        stalled = lo_known and abs(step) > 0.5 * abs(prev - prev2)
        prev2, prev = prev, beta
        if lo < beta - step < hi and not stalled:
            beta -= step
        else:
            beta = 0.5 * (lo + hi) if lo_known else lo
    raise failure(f"root not found within {ROOT_MAX_EVALS} evaluations", beta)


def maximize_over_beta(tau: float, cfg: ModelConfig, p: Prior) -> tuple[float, float, int]:
    """Maximize the concave beta -> D(tau, beta): (argmax, value, gradient evaluations)."""
    _check_positive("tau", tau)
    beta, _, evals = _beta_root(tau, cfg, p)
    return beta, objective_D(tau, beta, cfg, p), evals


def solve_scalar(cfg: ModelConfig, p: Prior) -> ScalarSolution:
    """Solve the scalar min-max problem for (tau*, beta*).

    Newton's method on grad D = 0 in (tau, beta), one `_derivatives`
    evaluation per step.  The step eliminates beta, dtau = -(dD/dtau +
    dbeta/dtau dD/dbeta) / S and dbeta = dD/dbeta / (-H_bb) + dbeta/dtau dtau
    with S = H_tt - H_tb^2 / H_bb, so it reads the five values `_derivatives`
    returns and forms no product of Hessian entries.  A variable x rises to
    x + move and falls to x^2 / (x - move), the same to first order, so a
    steep fall (as at small lambda, where beta* scales with lambda) cannot
    carry it to zero or below.  The start is the lambda -> inf limit of both:
    tau0 = sqrt((sigma_z^2 + E[X^2])/delta), where the estimate is zero, so
    delta tau*^2 - sigma_z^2 = E[X^2], and beta0 = tau0 delta +
    (sigma_z^2 + E[X^2])/tau0, the top of `_beta_root`'s bracket.  It depends
    on the configuration only, so each solve is independent of any other
    lambda.  The iteration stops when both steps are at most ROOT_REL_TOL of
    their variable, at the point last evaluated, whose gradient gives the
    residual.  Raises NonConvergenceError, naming delta, at a zero slope, a
    step that is not finite (a NaN slope gives one), a point off the positive
    quadrant, ROOT_MAX_EVALS steps without convergence, or a scaled residual
    above SADDLE_TOL * D(tau*, beta*).  That last message says so when the
    tau slope (about delta^2) or tau dD/dtau overflowed, as it does from
    delta of about 1e154 up; an infinite slope makes a zero step.
    """
    def failure(what: str) -> NonConvergenceError:
        return NonConvergenceError(f"saddle search {what} at tau={tau:g}, beta={beta:g}, "
                                   f"delta={cfg.delta:g}", tau=tau, beta=beta)

    ex2 = p.second_moment()
    tau = math.sqrt((cfg.sigma_z2 + ex2) / cfg.delta)
    beta = tau * cfg.delta + (cfg.sigma_z2 + ex2) / tau
    for evals in range(1, ROOT_MAX_EVALS + 1):
        if not (0.0 < tau < math.inf and 0.0 < beta < math.inf):
            raise failure("left the positive quadrant")
        g_tau, g_beta, slope_beta, slope, beta_tau = _derivatives(tau, beta, cfg, p)
        if slope_beta == 0.0 or slope == 0.0:
            raise failure(f"met a zero slope ({slope_beta:g}, {slope:g})")
        d_tau = -(g_tau + beta_tau * g_beta) / slope
        d_beta = g_beta / slope_beta + beta_tau * d_tau
        if not (math.isfinite(d_tau) and math.isfinite(d_beta)):
            raise failure(f"took the step ({d_tau:g}, {d_beta:g})")
        if abs(d_tau) <= ROOT_REL_TOL * tau and abs(d_beta) <= ROOT_REL_TOL * beta:
            break
        tau = tau + d_tau if d_tau >= 0.0 else tau * tau / (tau - d_tau)
        beta = beta + d_beta if d_beta >= 0.0 else beta * beta / (beta - d_beta)
    else:
        raise failure(f"did not converge within {ROOT_MAX_EVALS} steps")
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
                          inner_iters_total=evals, residual=residual)


def predict_mse(sol: ScalarSolution, cfg: ModelConfig, p: Prior) -> float:
    """Limiting mean squared error E[(eta(gamma*X + tau* H; chi*) - X)^2], chi* = 2 lam tau*/beta*.

    Summed over the prior's atoms in closed form with nothing subtracted: delta*tau*^2 -
    sigma_z^2 + 2 (gamma - 1) E[eta X] is equal at the saddle but cancels where the MSE lies
    far below sigma_z^2.  ValueError unless tau* and chi* are positive and finite.
    """
    tau = _check_positive("tau", sol.tau_star)
    chi = _check_positive("chi", 2.0 * cfg.lam * tau / sol.beta_star)
    return sum(prob * _gauss_sq_error(cfg.gamma * v, tau, chi, v) for v, prob in p.atoms)


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

    cfg.lam is ignored.  brent_min searches search_interval to the absolute
    tolerance _LAMBDA_TOL = 1e-6, so lambda_opt lies within about 7e-7 of a local
    minimiser of the predicted MSE, and (lambda_opt, mse_opt) is returned only
    when it lies inside the interval.  Raises NonConvergenceError when the
    search ends within its tolerance of either end, naming that end, or when
    it takes more than OUTER_MAX_ITERS steps.
    """
    lo, hi = float(search_interval[0]), float(search_interval[1])
    if not 0.0 < lo < hi < math.inf:
        raise ValueError(f"need 0 < lo < hi < inf, got ({lo}, {hi})")

    def f(lam: float) -> float:
        c = cfg.with_lam(lam)
        return predict_mse(solve_scalar(c, p), c, p)

    lam_opt, mse_opt, _ = brent_min(f, lo, hi)
    return lam_opt, mse_opt
