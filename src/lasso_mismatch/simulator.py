"""Finite-dimensional Monte Carlo: instance generation, LASSO solving, metrics.

Instances follow y = H x0 + z, where the solver sees only A = gamma H + eps Omega
with gamma^2 + eps^2 = 1.  Given A, H = gamma A + eps G with G independent of A,
so y = gamma A x0 + s xi with s^2 = sigma_z2 + eps^2 ||x0||^2 / n and xi ~ N(0, I).
The LASSO (1/2)||y - A x||^2 + lam ||x||_1 is solved by accelerated proximal
gradient with adaptive restart (FISTA).  Its step constant L starts from
the largest squared column norm of A and adapts every iteration: it first
tries a smaller L and doubles it until the Beck-Teboulle sufficient-decrease
test certifies the step (Scheinberg, Goldfarb & Bai 2014 let L decrease).  It
carries A x and A w so an iteration costs two matrix-vector products plus
one per failed test, and once the sign pattern of the iterate settles it
tries the exact solution on that pattern, returned only if it passes the
KKT gate.  When that solve is rejected, a bounded feature-sign active-set
search (Lee, Battle, Raina & Ng 2007) corrects the pattern from the iterate,
and the exact solution on the corrected pattern faces the same gate; FISTA
goes on only when both fail.

The Monte Carlo loop runs over trials first, then over lambda: instances do
not depend on lambda, so each trial draws its instance once, from a
deterministically derived per-trial random substream, and solves the whole
lambda grid on it with independent (not warm-started) solves.  Results are
reproducible bit for bit regardless of the grid that contains a lambda.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import _check_positive
from .predictor import ModelConfig
from .prior import Prior, sample_on_support

__all__ = [
    "Instance",
    "LassoResult",
    "TrialResult",
    "EmpiricalReport",
    "round_count",
    "generate_instance",
    "solve_lasso",
    "empirical_metrics",
    "run_grid",
    "run_trials",
]


def round_count(x: float) -> int:
    """Round a nonnegative real to the nearest integer, half away from zero."""
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class Instance:
    """One simulated problem: ground truth, matrix, observations, support."""

    x0: np.ndarray
    A: np.ndarray
    y: np.ndarray
    support: np.ndarray


@dataclass(frozen=True)
class LassoResult:
    """Solution, iteration count, KKT residual and the final step constant L.

    `matvecs` counts every product with A or A^T the solve took: gradients,
    backtracking retries, KKT checks, exact-solve and active-set search
    products.  `exact_solves` counts the dense factorizations: each solve of
    an exact-solve attempt and the inverse each search starts from.
    `polished` is True when the solve ended in the exact solve on a sign
    pattern.
    """

    x_hat: np.ndarray
    iters: int
    kkt_residual: float
    converged: bool
    lipschitz: float
    matvecs: int
    exact_solves: int
    polished: bool


@dataclass(frozen=True)
class TrialResult:
    mse: float
    phi_on: float
    phi_off: float
    solver_iters: int
    kkt_residual: float
    converged: bool


@dataclass(frozen=True)
class EmpiricalReport:
    """Per-trial results plus their means and standard errors for one cell."""

    trials: tuple[TrialResult, ...]
    mean_mse: float
    se_mse: float
    mean_phi_on: float
    se_phi_on: float
    mean_phi_off: float
    se_phi_off: float
    n: int
    seed: int

    @property
    def nonconverged_trials(self) -> int:
        return sum(1 for t in self.trials if not t.converged)


def _instance_size(cfg: ModelConfig, n: int) -> tuple[int, int]:
    """(m, k) = (round(delta n), round(kappa n)); ValueError unless n >= 8, m >= 1, 1 <= k < n."""
    if n < 8:
        raise ValueError(f"n must be at least 8, got {n}")
    m = round_count(cfg.delta * n)
    if m < 1:
        raise ValueError(f"measurement count m={m} = round(delta n) must be at least 1, n={n}")
    k = round_count(cfg.kappa * n)
    if k < 1 or k >= n:
        raise ValueError(f"support size k={k} = round(kappa n) out of range for n={n}")
    return m, k


def _check_run(cfg: ModelConfig, n: int, trials: int, seed: int) -> None:
    """ValueError unless trials >= 1, seed >= 0 and n gives a valid instance size."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    _instance_size(cfg, n)


def generate_instance(
    cfg: ModelConfig, p: Prior, n: int, rng: np.random.Generator
) -> Instance:
    """Draw one problem instance of size n under the additive-uncertainty model.

    The support has exactly round(kappa * n) entries placed uniformly; its
    values are drawn from the prior conditioned on being nonzero.  A has iid
    N(0, 1/n) entries; y is drawn from its law given A, H = gamma A + eps G with
    G independent of A, as y = gamma A x0 + s xi, s^2 = sigma_z2 + eps^2 |x0|^2/n.
    """
    m, k = _instance_size(cfg, n)
    support = np.sort(rng.choice(n, size=k, replace=False))
    x0 = np.zeros(n)
    x0[support] = sample_on_support(p, rng, k)

    A = rng.normal(0.0, 1.0 / math.sqrt(n), size=(m, n))
    s = math.sqrt(cfg.sigma_z2 + cfg.eps2 * float(x0 @ x0) / n)
    y = cfg.gamma * (A @ x0) + rng.normal(0.0, s, size=m)
    return Instance(x0=x0, A=A, y=y, support=support)


def _kkt_residual(g: np.ndarray, x: np.ndarray, lam: float) -> float:
    """Violation of the LASSO optimality conditions at x, given g = A^T (A x - y)."""
    zero = x == 0.0
    r_zero = float(np.max(np.maximum(np.abs(g[zero]) - lam, 0.0))) if zero.any() else 0.0
    active = ~zero
    r_active = float(np.max(np.abs(g[active] + lam * np.sign(x[active])))) if active.any() else 0.0
    return max(r_zero, r_active)


# each iteration first tries L times this, so L can come back down
_L_SHRINK = 0.9
# iterations with an unchanged sign pattern before the exact solve on it is tried
_POLISH_AFTER = 5
# steps below this share of the iterate's norm are within rounding of A d
_STEP_FLOOR = 1e-12
# KKT residuals below this many ulps of ||A^T y||_inf are rounding level
_KKT_FLOOR = 64.0 * np.finfo(float).eps
# smallest normal float: a smaller ||A||_F^2 makes the gradient subnormal
_NORMAL_MIN = float(np.finfo(float).tiny)


def _polish(A: np.ndarray, y: np.ndarray, lam: float, signs: np.ndarray,
            kkt_gate: float) -> tuple[tuple[np.ndarray, float] | None, int, int]:
    """Exact LASSO solution for the sign pattern `signs`, if it is the optimum.

    Solves the normal equations A_S^T A_S x_S = A_S^T y - lam s_S on the
    support S of `signs`.  The candidate (x, KKT residual) is returned only
    if its signs equal `signs` on S (a cheap early exit) and the residual,
    which certifies it, is within kkt_gate; otherwise None.  A candidate
    with the right signs that misses the gate gets one step of iterative
    refinement first: on S the KKT residual is the residual of the normal
    equations, so the step costs one more solve.  The candidate depends
    only on (A, y, lam, signs), not on how the pattern was found.  The
    second value counts the products with A, A^T or A_S taken, the Gram
    matrix as one, and the third the dense solves.
    """
    support = np.flatnonzero(signs)
    if support.size > A.shape[0]:
        return None, 0, 0
    s = signs[support]
    A_s = A[:, support]
    gram = A_s.T @ A_s
    products = 2
    solves = 1
    x = np.zeros(A.shape[1])
    try:
        x_s = np.linalg.solve(gram, A_s.T @ y - lam * s)
        for refined in (False, True):
            if not np.array_equal(np.sign(x_s), s):
                return None, products, solves
            x[support] = x_s
            grad = A.T @ (A_s @ x_s - y)
            products += 2
            kkt = _kkt_residual(grad, x, lam)
            if kkt <= kkt_gate or refined:
                break
            solves += 1
            x_s = x_s - np.linalg.solve(gram, grad[support] + lam * s)
    except np.linalg.LinAlgError:
        return None, products, solves
    return ((x, kkt) if kkt <= kkt_gate else None), products, solves


# feature-sign steps the active-set search takes before it gives up
_SEARCH_STEPS = 32
# a column whose Schur complement is below this share of its squared norm is
# (numerically) in the span of the active columns
_PIVOT_FLOOR = 1e-10


def _feature_sign(A: np.ndarray, y: np.ndarray, lam: float, x: np.ndarray,
                  r: np.ndarray, aty: np.ndarray,
                  kkt_gate: float) -> tuple[np.ndarray | None, int, int]:
    """Sign pattern of the LASSO optimum by feature-sign search from x, or None.

    The active-set search of Lee, Battle, Raina & Ng (2007) started from
    the iterate x, with r = A x - y and aty = A^T y.  On the active set S
    with signs theta it solves the equality QP A_S^T A_S x_S = A_S^T y -
    lam theta, then moves toward that solution to the lowest objective
    among the points where a coefficient changes sign and the solution
    itself, and drops the entries that reach zero.  Once the QP solution
    keeps its signs, the worst off-support KKT violator j joins with sign
    -sign(g_j).  The pattern is returned when no entry violates by more
    than kkt_gate; the search gives up (None) when S would reach m
    entries, the objective fails to fall, a column is dependent on S, or
    `_SEARCH_STEPS` steps pass.  It keeps one inverse of A_S^T A_S and
    changes it by bordering (add) and Schur complements (drop), so a step
    costs O(|S|^2) plus two or three full-length products.  Only the
    pattern leaves: `_polish` solves and certifies it afresh.  The second
    value counts the products with A, A^T or A_S taken, the Gram matrix as
    one, and the third the dense factorizations (the inverse of A_S^T A_S
    when S starts nonempty, taken once the copy A_S is freed).
    """
    m, n = A.shape
    support = np.flatnonzero(x)
    k = support.size
    if k >= m:
        return None, 0, 0
    # each step adds at most one entry, and S stays below m entries
    cap = min(m - 1, k + _SEARCH_STEPS)
    active = np.empty(cap, dtype=np.intp)
    active[:k] = support
    theta = np.empty(cap)
    theta[:k] = np.sign(x[support])
    inv = np.empty((cap, cap))
    products = solves = int(k > 0)
    if k:
        gram = A[:, support]
        gram = gram.T @ gram
        try:
            inv[:k, :k] = np.linalg.inv(gram)
        except np.linalg.LinAlgError:
            return None, products, solves
    x = x.copy()
    r = r.copy()
    d_full = np.zeros(n)
    # an empty S is optimal on itself: the search starts by adding
    settled = k == 0
    for _ in range(_SEARCH_STEPS):
        if settled:
            g = A.T @ r
            products += 1
            viol = np.abs(g) - lam
            viol[active[:k]] = -math.inf
            j = int(np.argmax(viol))
            if viol[j] <= kkt_gate:
                return np.sign(x), products, solves
            if k == cap:
                return None, products, solves
            col = A.T @ A[:, j]
            products += 1
            b = col[active[:k]]
            u = inv[:k, :k] @ b
            schur = float(col[j] - b @ u)
            if not schur > _PIVOT_FLOOR * col[j]:
                return None, products, solves
            u /= -schur
            # bordered inverse: [[M + s u u^T, u], [u^T, 1/s]] with u = -M b / s
            inv[:k, :k] += np.multiply.outer(u, schur * u)
            inv[:k, k] = u
            inv[k, :k] = u
            inv[k, k] = 1.0 / schur
            active[k] = j
            theta[k] = -math.copysign(1.0, g[j])
            k += 1
        S = active[:k]
        x_s = x[S]
        target = inv[:k, :k] @ (aty[S] - lam * theta[:k])
        d = target - x_s
        d_full[S] = d
        Ad = A @ d_full
        d_full[S] = 0.0
        products += 1
        # the objective change along x + t d, t in (0, 1], at each point where
        # an entry crosses zero and at t = 1: an entry moves with sign sigma_j
        # (that of d_j if x_j is zero), and one that crossed before t adds
        # -2 (|x_j| + t sigma_j d_j) to the l1 change t sigma.d
        sigma = np.where(x_s != 0.0, np.sign(x_s), np.sign(d))
        with np.errstate(divide="ignore", invalid="ignore"):
            cross_at = -x_s / d
        crossing = np.flatnonzero((cross_at > 0.0) & (cross_at < 1.0))
        order = crossing[np.argsort(cross_at[crossing])]
        ts = np.append(cross_at[order], 1.0)
        lost_x = np.cumsum(np.append(np.abs(x_s[order]), 0.0))
        lost_d = np.cumsum(np.append(sigma[order] * d[order], 0.0))
        change = (ts * float(r @ Ad) + 0.5 * ts * ts * float(Ad @ Ad)
                  + lam * (ts * float(sigma @ d) - 2.0 * (lost_x + ts * lost_d)))
        best = int(np.argmin(change))
        if not change[best] < 0.0:
            return None, products, solves
        t = ts[best]
        if best == order.size:
            x[S] = target
            settled = np.array_equal(np.sign(target), theta[:k])
        else:
            x[S] = x_s + t * d
            x[S[order[best]]] = 0.0
            settled = False
        r += t * Ad
        # drop the zeros, last first, each swapped to the end of S
        for pos in np.flatnonzero(x[S] == 0.0)[::-1]:
            last = k - 1
            if pos != last:
                active[[pos, last]] = active[[last, pos]]
                inv[[pos, last], :k] = inv[[last, pos], :k]
                inv[:k, [pos, last]] = inv[:k, [last, pos]]
            k = last
            pivot = inv[k, k]
            if not pivot > 0.0:
                return None, products, solves
            inv[:k, :k] -= np.multiply.outer(inv[:k, k], inv[k, :k] / pivot)
        theta[:k] = np.sign(x[active[:k]])
    return None, products, solves


def solve_lasso(
    A: np.ndarray,
    y: np.ndarray,
    lam: float,
    tol: float = 1e-10,
    max_iter: int = 20000,
) -> LassoResult:
    """Minimize (1/2)||y - A x||^2 + lam ||x||_1 by accelerated proximal gradient.

    The step is 1/L, and the proximal map is soft thresholding at lam/L.
    L starts from the largest squared column norm of A, which is positive
    and at most ||A||_2^2.  Each iteration first tries L times 0.9 and
    doubles it until the Beck-Teboulle sufficient-decrease test holds, so
    every accepted step is certified while L follows the curvature along the
    steps actually taken, down as well as up; L never exceeds ||A||_F^2,
    which bounds ||A||_2^2.
    The products A x and A w are carried through the iterations, so an
    iteration costs two matrix-vector products plus one per failed test.
    Once the sign pattern of the iterate has held for a few iterations, the
    exact solution on that pattern is tried and returned if it passes the
    KKT gate.  If it fails, a feature-sign search from the iterate corrects
    the pattern (dropping entries that cross zero, adding the worst KKT
    violator), and the exact solution on its pattern is tried the same way;
    the search gives up, and FISTA goes on, at m entries or after a few
    dozen steps.  Either way the returned x depends only on (A, y, lam,
    pattern), not on the path to the pattern.  Iterations stop once the
    relative objective change falls below tol and the KKT residual is within
    the gate 10*tol*lam, floored at 64 ulps of ||A^T y||_inf, below which the
    residual is rounding; hitting max_iter with a larger residual flags the
    result as non-converged (it is still returned).
    ||A||_F^2 must be finite and at least the smallest normal float: the
    gradient and |A d|^2 scale with it, and as subnormals they lose the bits
    the step test and the KKT residual need, so a wrong x could pass the gate.
    """
    _check_positive("lam", lam)
    _check_positive("tol", tol)
    m, n = A.shape
    if y.shape != (m,):
        raise ValueError(f"y has shape {y.shape}, expected ({m},)")
    if not np.isfinite(y).all():
        raise ValueError("y must be finite")
    col_sq = np.einsum("ij,ij->j", A, A)
    # ||A||_F^2 >= ||A||_2^2, so backtracking never needs L above it
    L_max = float(col_sq.sum())
    if not _NORMAL_MIN <= L_max < math.inf:
        raise ValueError(f"||A||_F^2 must be positive, finite and at least the smallest "
                         f"normal float {_NORMAL_MIN!r}, got {L_max!r}")
    # a start below ||A||_2^2 is corrected by backtracking
    L = float(col_sq.max())
    matvecs = exact_solves = 0

    kkt_gate = 10.0 * tol * lam
    x = np.zeros(n)
    Ax = np.zeros(m)
    w, Aw = x, Ax
    t = 1.0
    f_prev = 0.5 * float(y @ y)
    signs = np.zeros(n)
    stable = 0
    kkt = math.inf
    iters = 0
    for k in range(1, max_iter + 1):
        iters = k
        grad = A.T @ (Aw - y)
        matvecs += 1
        if k == 1:
            # the first gradient is -A^T y
            aty = -grad
            kkt_gate = max(kkt_gate, _KKT_FLOOR * float(np.abs(grad).max()))
        L *= _L_SHRINK
        while True:
            step = w - grad / L
            x_new = np.sign(step) * np.maximum(np.abs(step) - lam / L, 0.0)
            Ax_new = A @ x_new
            matvecs += 1
            # sufficient decrease f(x_new) <= f(w) + grad.d + (L/2)|d|^2 of the
            # quadratic part f, which is exactly |A d|^2 <= L |d|^2.  A d is a
            # difference of carried products, so |d| is floored at the
            # rounding level of the iterate; otherwise rounding alone would
            # keep doubling L once the iterates settle.
            d = x_new - w
            Ad = Ax_new - Aw
            dd = max(float(d @ d), _STEP_FLOOR**2 * float(x_new @ x_new))
            if float(Ad @ Ad) <= L * dd or L >= L_max:
                break
            L = min(2.0 * L, L_max)
        dx = x_new - x
        # adaptive restart: drop momentum when it points uphill
        if float(d @ dx) < 0.0:
            t = 1.0
        t_new = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        c = (t - 1.0) / t_new
        w = x_new + c * dx
        Aw = Ax_new + c * (Ax_new - Ax)
        r = Ax_new - y
        f = 0.5 * float(r @ r) + lam * float(np.abs(x_new).sum())
        small_change = abs(f_prev - f) <= tol * max(1.0, abs(f))
        signs_new = np.sign(x_new)
        stable = 0 if (signs_new != signs).any() else stable + 1
        x, Ax, t, f_prev, signs = x_new, Ax_new, t_new, f, signs_new
        if small_change:
            kkt = _kkt_residual(A.T @ r, x, lam)
            matvecs += 1
            if kkt <= kkt_gate:
                break
        if stable == _POLISH_AFTER:
            polished, products, solves = _polish(A, y, lam, signs, kkt_gate)
            matvecs += products
            exact_solves += solves
            if polished is None:
                pattern, products, solves = _feature_sign(A, y, lam, x, r, aty, kkt_gate)
                matvecs += products
                exact_solves += solves
                if pattern is not None and not np.array_equal(pattern, signs):
                    polished, products, solves = _polish(A, y, lam, pattern, kkt_gate)
                    matvecs += products
                    exact_solves += solves
            if polished is not None:
                return LassoResult(x_hat=polished[0], iters=iters, kkt_residual=polished[1],
                                   converged=True, lipschitz=L, matvecs=matvecs,
                                   exact_solves=exact_solves, polished=True)
    if not math.isfinite(kkt) or iters == max_iter:
        kkt = _kkt_residual(A.T @ (Ax - y), x, lam)
        matvecs += 1
    converged = iters < max_iter or kkt <= kkt_gate
    return LassoResult(x_hat=x, iters=iters, kkt_residual=kkt, converged=converged,
                       lipschitz=L, matvecs=matvecs, exact_solves=exact_solves,
                       polished=False)


def empirical_metrics(x_hat: np.ndarray, inst: Instance,
                      xi: float) -> tuple[float, float, float]:
    """Per-trial (MSE, on-support rate, off-support rate) at hard threshold xi."""
    _check_positive("xi", xi)
    n = inst.x0.shape[0]
    k = inst.support.shape[0]
    mse = float(np.sum((x_hat - inst.x0) ** 2)) / n
    off_mask = np.ones(n, dtype=bool)
    off_mask[inst.support] = False
    phi_on = float(np.count_nonzero(np.abs(x_hat[inst.support]) >= xi)) / k
    phi_off = float(np.count_nonzero(np.abs(x_hat[off_mask]) <= xi)) / (n - k)
    return mse, phi_on, phi_off


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent, deterministic random stream for one trial."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return mean, se


def _report(results: list[TrialResult], n: int, seed: int) -> EmpiricalReport:
    mean_mse, se_mse = _mean_se(np.array([t.mse for t in results]))
    mean_on, se_on = _mean_se(np.array([t.phi_on for t in results]))
    mean_off, se_off = _mean_se(np.array([t.phi_off for t in results]))
    return EmpiricalReport(
        trials=tuple(results),
        mean_mse=mean_mse,
        se_mse=se_mse,
        mean_phi_on=mean_on,
        se_phi_on=se_on,
        mean_phi_off=mean_off,
        se_phi_off=se_off,
        n=n,
        seed=seed,
    )


def run_grid(
    cfg: ModelConfig,
    p: Prior,
    n: int,
    trials: int,
    xi: float,
    seed: int,
    lambdas: tuple[float, ...],
) -> tuple[EmpiricalReport, ...]:
    """Run independent trials over a lambda grid; one report per lambda, in order.

    Instances do not depend on lambda (cfg.lam is not used), so each trial
    draws its instance once, from a random substream derived from (seed,
    trial index), and solves every lambda on it.  Each solve is independent
    of the others, so a report is identical for any grid that contains its
    lambda.  Trials run in order, one instance alive at a time.
    Non-converged solver runs are recorded, not dropped.
    """
    _check_run(cfg, n, trials, seed)
    _check_positive("xi", xi)
    lambdas = tuple(lambdas)
    if not lambdas or not all(0.0 < lam < math.inf for lam in lambdas):
        raise ValueError(
            f"lambdas must be a nonempty list of positive finite values, got {lambdas}")

    cells: list[list[TrialResult]] = [[] for _ in lambdas]
    for i in range(trials):
        inst = generate_instance(cfg, p, n, _trial_rng(seed, i))
        for lam, cell in zip(lambdas, cells):
            res = solve_lasso(inst.A, inst.y, lam)
            cell.append(TrialResult(*empirical_metrics(res.x_hat, inst, xi),
                                    res.iters, res.kkt_residual, res.converged))
        # free this trial's matrix before the next one is drawn
        del inst
    return tuple(_report(cell, n, seed) for cell in cells)


def run_trials(
    cfg: ModelConfig,
    p: Prior,
    n: int,
    trials: int,
    xi: float,
    seed: int,
) -> EmpiricalReport:
    """Run independent trials at cfg.lam and aggregate means and standard errors.

    The one-lambda case of `run_grid`: the report equals, bit for bit, the
    cell of cfg.lam in any grid run with the same arguments.
    """
    return run_grid(cfg, p, n, trials, xi, seed, (cfg.lam,))[0]
