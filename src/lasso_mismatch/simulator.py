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
starting from the Gram matrix the rejected solve formed and its inverse
through a Cholesky factor, and the exact solution on the corrected pattern
faces the same gate; FISTA goes on only when both fail.  The iterations
that find the pattern run their products on a float32 copy of A, and hand
over to A itself, once and for good, at a due exact solve, at max_iter or
when float32 can take them no further; the exact solves, the search and
the gate use A in float64, so the returned x is the same as with float64
iterations whenever both reach its pattern (mixed-precision iterative
refinement: Higham 2002, ch. 12; Carson & Higham 2018).  When lambda is at least
||A^T y||_inf, x = 0 is returned before any iteration.

The Monte Carlo loop runs over trials first, then over lambda: instances do
not depend on lambda, so each trial draws its instance once, from a
deterministically derived per-trial random substream, checks it and forms
its lambda-independent data (column norms, A^T y) once, and solves the whole
lambda grid on it with independent (not warm-started) solves, each making
its own float32 copy of A.  The one worker thread of a `concurrent.futures`
executor draws every instance, the next trial's while one is solved, into
the other of two matrix buffers the run reuses, so at most two instances
are alive at a time; one helper states the instance law for the run's
checks and for each draw.  Results are reproducible bit for bit regardless
of the grid that contains a lambda, and equal those of drawing and solving
the trials one after another.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import _SIMULATOR_NAMES
from .kernels import _check_positive
from .predictor import ModelConfig
from .prior import _PROB_TOL, Prior

# the package lists these names, so that it can resolve them without importing this module
__all__ = list(_SIMULATOR_NAMES)


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

    `matvecs` counts every product with A or A^T the solve took: A^T y
    (once per solve, also where `run_grid` forms it once for a trial's
    lambda grid), gradients, backtracking retries, the float64 A x and A w
    formed at the hand-over, KKT checks, exact-solve and active-set search
    products; the search reads A^T y and the rejected exact solve's Gram
    matrix rather than forming them again.  `exact_solves` counts the dense
    factorizations: each solve of an exact-solve attempt and the Cholesky
    factor each search starts from.
    `polished` is True when the solve ended in the exact solve on a sign
    pattern.  `float32_iters` counts the iterations whose products ran on
    the float32 copy of A (the first gradient, -A^T y, is float64): it is
    the iteration of the hand-over to float64, which every exit passes while
    the copy is in use, and 0 when A and y lie outside float32's range.
    `iters` and `float32_iters` are 0 when x = 0 is returned before any
    iteration (lambda >= ||A^T y||_inf).  `converged` is True when
    `kkt_residual` is within the KKT gate, which a NaN never is.
    """

    x_hat: np.ndarray
    iters: int
    kkt_residual: float
    converged: bool
    lipschitz: float
    matvecs: int
    exact_solves: int
    polished: bool
    float32_iters: int


@dataclass(frozen=True)
class EmpiricalReport:
    """One cell's trials as columns, in trial order, with their means and SEs.

    `mse`, `phi_on` and `phi_off` hold `empirical_metrics` of each trial,
    and `iters`, `kkt_residual` and `converged` the fields of its
    `LassoResult`.  The columns are tuples, not arrays, so reports compare
    and hash by value; `np.array(report.mse)` gives the float64 values the
    means and SEs were taken from.
    """

    mse: tuple[float, ...]
    phi_on: tuple[float, ...]
    phi_off: tuple[float, ...]
    iters: tuple[int, ...]
    kkt_residual: tuple[float, ...]
    converged: tuple[bool, ...]
    mean_mse: float
    se_mse: float
    mean_phi_on: float
    se_phi_on: float
    mean_phi_off: float
    se_phi_off: float

    @property
    def nonconverged_trials(self) -> int:
        return self.converged.count(False)


def _instance_law(cfg: ModelConfig, p: Prior,
                  n: int) -> tuple[int, int, tuple[float, ...], tuple[float, ...]]:
    """(m, k, values, probs): m = round(delta n) rows, k = round(kappa n) support
    entries, and the prior's nonzero atoms with their renormalized masses.

    ValueError, in this order, when the prior has no nonzero atom, when its
    nonzero mass differs from cfg.kappa by more than _PROB_TOL (kappa sets k,
    and the theory reads that mass, so the two must be one number), when
    n < 8, when delta n or kappa n is not a finite float, when m < 1, and
    unless 1 <= k < n.
    """
    values, probs = zip(*p.nonzero_atoms())
    mass = sum(prob for v, prob in p.atoms if v != 0.0)
    if abs(mass - cfg.kappa) > _PROB_TOL:
        raise ValueError(f"the prior's nonzero mass {mass!r} differs from kappa={cfg.kappa!r} "
                         f"by more than {_PROB_TOL}")
    if n < 8:
        raise ValueError(f"n must be at least 8, got {n}")
    try:
        m, k = round_count(cfg.delta * n), round_count(cfg.kappa * n)
    except OverflowError:  # a product, or n itself, is beyond the float range
        raise ValueError(f"delta n and kappa n must be finite floats, got "
                         f"delta={cfg.delta:g}, n={n}") from None
    if m < 1:
        raise ValueError(f"measurement count m={m} = round(delta n) must be at least 1, n={n}")
    if k < 1 or k >= n:
        raise ValueError(f"support size k={k} = round(kappa n) out of range for n={n}")
    return m, k, values, probs


def _check_run(cfg: ModelConfig, p: Prior, n: int, trials: int, seed: int) -> int:
    """The instance's row count m; ValueError unless trials >= 1, seed >= 0 and (cfg, p, n)
    give an instance."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    return _instance_law(cfg, p, n)[0]


def generate_instance(
    cfg: ModelConfig, p: Prior, n: int, rng: np.random.Generator,
    *, out: np.ndarray | None = None,
) -> Instance:
    """Draw one problem instance of size n under the additive-uncertainty model.

    The support has exactly round(kappa * n) entries placed uniformly; its
    values are drawn iid from the prior conditioned on being nonzero
    (ValueError when the prior has no nonzero atom, or when its nonzero mass
    differs from kappa by more than 1e-12: the theory reads that mass, so
    another kappa would simulate another model).  A has iid N(0, 1/n)
    entries; y is drawn from its law given A, H = gamma A + eps G with G
    independent of A, as y = gamma A x0 + s xi, s^2 = sigma_z2 + eps^2 |x0|^2/n.
    A is written into `out` when given, which must be a writable C-contiguous
    float64 array of shape (m, n) (ValueError otherwise, before anything is
    drawn), and into a new array otherwise; the draws are the same either way.
    """
    m, k, values, probs = _instance_law(cfg, p, n)
    if out is None:
        A = np.empty((m, n))
    elif (out.shape != (m, n) or out.dtype != np.float64 or not out.flags.c_contiguous
          or not out.flags.writeable):
        raise ValueError(f"out must be a writable C-contiguous float64 array of shape "
                         f"{(m, n)}, got shape {out.shape}, dtype {out.dtype}, "
                         f"C-contiguous {out.flags.c_contiguous}, "
                         f"writable {out.flags.writeable}")
    else:
        A = out
    support = np.sort(rng.choice(n, size=k, replace=False))
    x0 = np.zeros(n)
    x0[support] = rng.choice(values, size=k, p=probs)

    # the same draws and products as rng.normal(0.0, 1.0 / sqrt(n), (m, n))
    rng.standard_normal(out=A)
    A *= 1.0 / math.sqrt(n)
    s = math.sqrt(cfg.sigma_z2 + cfg.eps2 * float(x0 @ x0) / n)
    y = cfg.gamma * (A @ x0) + rng.normal(0.0, s, size=m)
    return Instance(x0=x0, A=A, y=y, support=support)


def _kkt_residual(g: np.ndarray, x: np.ndarray, lam: float) -> float:
    """KKT violation of the LASSO at x, given g = A^T (A x - y); NaN if any g_j is NaN."""
    return float(np.max(np.where(x == 0.0, np.maximum(np.abs(g) - lam, 0.0),
                                 np.abs(g + lam * np.sign(x)))))


# each iteration first tries L times this, so L can come back down
_L_SHRINK = 0.9
# iterations with an unchanged sign pattern before the exact solve on it is tried
_POLISH_AFTER = 5
# steps below this share of the iterate's norm are within rounding of A d
_STEP_FLOOR = 1e-12
# KKT residuals below this many ulps of ||A^T y||_inf are rounding level
_KKT_FLOOR = 64.0 * float(np.finfo(float).eps)
# smallest normal float: a smaller ||A||_F^2 makes the gradient subnormal
_NORMAL_MIN = float(np.finfo(float).tiny)
# float32's machine epsilon: sqrt(n) of it is the step floor of float32 products
_EPS32 = float(np.finfo(np.float32).eps)
# square roots of float32's normal range: a product of two numbers within
# them is a normal float32
_F32_LO = math.sqrt(float(np.finfo(np.float32).tiny))
_F32_HI = math.sqrt(float(np.finfo(np.float32).max))


def _polish(A: np.ndarray, y: np.ndarray, lam: float, signs: np.ndarray,
            kkt_gate: float) -> tuple[tuple[np.ndarray, float] | None, int, int, np.ndarray]:
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
    matrix A_S^T A_S as one, the third the dense solves, and the fourth is
    that Gram matrix, which a search from an iterate with this support
    starts from.
    """
    support = np.flatnonzero(signs)
    s = signs[support]
    A_s = A[:, support]
    gram = A_s.T @ A_s
    products, solves = 2, 1
    x = np.zeros(A.shape[1])
    try:
        x_s = np.linalg.solve(gram, A_s.T @ y - lam * s)
        for refined in (False, True):
            if not np.array_equal(np.sign(x_s), s):
                return None, products, solves, gram
            x[support] = x_s
            grad = A.T @ (A_s @ x_s - y)
            products += 2
            kkt = _kkt_residual(grad, x, lam)
            if kkt <= kkt_gate or refined:
                break
            solves += 1
            x_s = x_s - np.linalg.solve(gram, grad[support] + lam * s)
    except np.linalg.LinAlgError:
        return None, products, solves, gram
    return ((x, kkt) if kkt <= kkt_gate else None), products, solves, gram


# feature-sign steps the active-set search takes before it gives up
_SEARCH_STEPS = 32
# a column whose Schur complement is below this share of its squared norm is
# (numerically) in the span of the active columns
_PIVOT_FLOOR = 1e-10


def _tril_inv(L: np.ndarray) -> np.ndarray:
    """Inverse of the lower-triangular L with a positive diagonal, by halves.

    The diagonal blocks of size 1 are the reciprocals of L's diagonal; each
    pass joins pairs of b-blocks into 2b-blocks, whose lower-left block is
    -X_22 L_21 X_11.  A pass handles all its full pairs in one stacked
    product over strided views of the diagonal blocks, and the last,
    shorter pair on its own, so about log2(k) passes of matrix products do
    the work.
    """
    k = L.shape[0]
    X = np.diag(1.0 / L.diagonal())
    b = 1
    while b < k:
        c = 2 * b
        pairs, tail = divmod(k, c)
        if pairs:
            Xb, Lb = (as_strided(M, (pairs, c, c), (c * sum(M.strides), *M.strides))
                      for M in (X, L))
            Xb[:, b:, :b] = -(Xb[:, b:, b:] @ (Lb[:, b:, :b] @ Xb[:, :b, :b]))
        if tail > b:
            s, t = pairs * c, pairs * c + b
            X[t:, s:t] = -(X[t:, t:] @ (L[t:, s:t] @ X[s:t, s:t]))
        b = c
    return X


def _feature_sign(A: np.ndarray, y: np.ndarray, lam: float, x: np.ndarray,
                  kkt_gate: float, aty: np.ndarray,
                  gram: np.ndarray) -> tuple[np.ndarray | None, int, int]:
    """Sign pattern of the LASSO optimum by feature-sign search from x, or None.

    The active-set search of Lee, Battle, Raina & Ng (2007) started from
    the iterate x, carrying the residual r = A x - y.  On the active set S
    with signs theta it solves the equality QP A_S^T A_S x_S = A_S^T y -
    lam theta, then moves toward that solution to the lowest objective
    among the points where a coefficient changes sign and the solution
    itself, and drops the entries that reach zero.  Once the QP solution
    keeps its signs, the worst off-support KKT violator j joins with sign
    -sign(g_j).  The pattern is returned when no entry violates by more
    than kkt_gate; the search gives up (None) when S would pass m
    entries, the objective fails to fall, a column is dependent on S, or
    `_SEARCH_STEPS` steps pass.  It is given aty = A^T y and gram =
    A_S^T A_S on the support of x (in its order), which `_polish` has just
    formed for the same pattern.  It keeps one inverse of A_S^T A_S, formed
    from the Cholesky factor L of gram as L^-T L^-1 (declining when gram is
    not numerically positive definite), and changes it by bordering (add)
    and Schur complements (drop), so a step costs O(|S|^2) plus two or
    three full-length products.  Only the pattern leaves: `_polish` solves
    and certifies it afresh.  The second value counts the products with A,
    A^T or A_S taken (r and the search's own), and the third the dense
    factorizations (the Cholesky factor when S starts nonempty).
    """
    m, n = A.shape
    support = np.flatnonzero(x)
    k = support.size
    # S starts with at most m entries and gains at most one a step, so it stays within m
    cap = min(m, k + _SEARCH_STEPS)
    active = np.empty(cap, dtype=np.intp)
    active[:k] = support
    theta = np.empty(cap)
    theta[:k] = np.sign(x[support])
    inv = np.empty((cap, cap))
    r = A @ x - y
    products, solves = 1, int(k > 0)
    if k:
        try:
            L_inv = _tril_inv(np.linalg.cholesky(gram))
        except np.linalg.LinAlgError:
            return None, products, solves
        inv[:k, :k] = L_inv.T @ L_inv
    x = x.copy()
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


def _product(M: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M @ v in the precision of M, returned as float64."""
    return (M @ v.astype(M.dtype, copy=False)).astype(np.float64, copy=False)


# solve_lasso's defaults, which run_grid's solves use as well
_TOL = 1e-10
_MAX_ITER = 20000


def solve_lasso(
    A: np.ndarray,
    y: np.ndarray,
    lam: float,
    tol: float = _TOL,
    max_iter: int = _MAX_ITER,
) -> LassoResult:
    """Minimize (1/2)||y - A x||^2 + lam ||x||_1 by accelerated proximal gradient.

    When ||A^T y||_inf <= lam, x = 0 is optimal with KKT residual 0, and it
    is returned before any iteration (iters 0, one product: A^T y).
    Otherwise the step is 1/L, and the proximal map is soft thresholding at
    lam/L.  L starts from the largest squared column norm of A, which is
    positive and at most ||A||_2^2.  Each iteration first tries L times 0.9
    and doubles it until the Beck-Teboulle sufficient-decrease test holds,
    so every accepted step is certified while L follows the curvature along
    the steps actually taken, down as well as up; L never exceeds
    ||A||_F^2, which bounds ||A||_2^2.
    The products A x and A w are carried through the iterations, so an
    iteration costs two matrix-vector products plus one per failed test.
    Once the sign pattern of the iterate has held for a few iterations, and
    has at most m entries (past m the columns of A_S are dependent), the
    exact solution on it is tried and returned if it passes the KKT gate.
    If it fails, a feature-sign search from the iterate corrects the pattern
    (dropping entries that cross zero, adding the worst KKT violator), and
    the exact solution on its pattern is tried the same way; the search
    gives up, and FISTA goes on, past m entries or after a few dozen steps.
    Either way the returned x depends only on (A, y, lam, pattern), not on
    the path to the pattern.  The KKT gate is 10*tol*lam, floored at 64 ulps
    of ||A^T y||_inf, below which the residual is rounding, and a NaN
    residual never passes.  FISTA's own exit is one KKT check of the
    iterate after an accepted float64 step below its rounding floor, where
    further steps cannot move x (as when a singular A_S^T A_S leaves no
    exact solve to certify it), and at max_iter (at least 1).  Iterations
    stop when it passes; at max_iter a larger residual flags the result as
    non-converged (it is still returned).  The check comes before a due
    exact solve, so at max_iter an iterate within the gate is returned
    unpolished, and one outside it costs that check's product first; on
    the fig-2 grid and the stress problems neither case arises.
    ||A||_F^2 must be finite and at least the smallest normal float: the
    gradient and |A d|^2 scale with it, and as subnormals they lose the bits
    the step test and the KKT residual need, so a wrong x could pass the gate.

    Mixed precision: float32 finds the pattern, float64 certifies it.
    Since the returned x depends only on its pattern and passes a float64
    gate, FISTA's products after the first gradient (-A^T y, formed in
    float64 before the loop) go through one matrix P: a float32 copy of A,
    made once, while the iterations look for the pattern, and A itself from
    the hand-over on.  The copy moves half the bytes of A: the vector is
    cast to float32 and the product back to float64, and the carried
    vectors stay float64.  A d then carries the rounding of up to four
    float32 products (A x_new, and A w = (1 + c) A x_new - c A x with
    0 <= c < 1).  For independent roundings a product of length n is off
    by about sqrt(n) u relative to its terms (Higham & Mary 2019), and four
    such errors add to 2 sqrt(n) u = sqrt(n) eps, with eps float32's
    machine epsilon: that is the step floor while P is the copy.  FISTA
    hands over to A, from the same iterate and momentum with A x and A w
    formed again from A, at the first of
      - an accepted step below that floor: float32 products cannot resolve
        a smaller one, so further float32 iterations only wander within
        rounding of the optimum of the float32 problem;
      - a due exact solve, or max_iter.
    A step below the float32 floor hands over without a check, so only a
    float64 step reaches FISTA's own check, and max_iter hands over before
    its check: every KKT residual reads A x - y in float64 (the exact solves
    and the search form what they read from A), and FISTA never goes back
    to float32.  The rule has no constant of its own.  The float32 phase is
    skipped when ||A||_F, ||y|| or their ratio (the scale of x) lies outside
    the square roots of float32's normal range: within them, A's entries,
    the iterates and their products stay normal float32 numbers.  A and y
    of any real dtype are solved as their float64 values.
    """
    _check_positive("lam", lam)
    _check_positive("tol", tol)
    if max_iter < 1:
        raise ValueError(f"max_iter must be at least 1, got {max_iter}")
    return _solve(_prepare(A, y), lam, tol, max_iter)


@dataclass(frozen=True)
class _Problem:
    """A LASSO instance's lambda-independent data, checked and formed once.

    A and y as float64; L0, the largest squared column norm of A, where
    the step constant starts; L_max = ||A||_F^2, its cap; aty = A^T y and
    aty_max = ||A^T y||_inf; and float32, whether ||A||_F, ||y|| and their
    ratio lie within the square roots of float32's normal range.
    """

    A: np.ndarray
    y: np.ndarray
    L0: float
    L_max: float
    aty: np.ndarray
    aty_max: float
    float32: bool


def _prepare(A: np.ndarray, y: np.ndarray) -> _Problem:
    """Check A and y as `solve_lasso` states, and form their `_Problem`."""
    # float64 from here on: an integer A would truncate the float32 phase's
    # casts, and a float32 one would run the float64 phase in float32
    A = np.asanyarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise ValueError(f"A must be a 2-D array, got shape {A.shape}")
    y = np.asarray(y, dtype=np.float64)
    m = A.shape[0]
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
    aty = A.T @ y
    norm_a, norm_y = math.sqrt(L_max), math.sqrt(float(y @ y))
    return _Problem(
        A=A, y=y,
        # a start below ||A||_2^2 is corrected by backtracking
        L0=float(col_sq.max()), L_max=L_max, aty=aty, aty_max=float(np.abs(aty).max()),
        float32=all(_F32_LO <= v <= _F32_HI for v in (norm_a, norm_y, norm_y / norm_a)))


def _solve(prob: _Problem, lam: float, tol: float, max_iter: int) -> LassoResult:
    """`solve_lasso` on a prepared problem, with lam, tol and max_iter already checked."""
    A, y, aty, aty_max, L_max = prob.A, prob.y, prob.aty, prob.aty_max, prob.L_max
    m, n = A.shape
    L = prob.L0
    if aty_max <= lam:
        return LassoResult(x_hat=np.zeros(n), iters=0, kkt_residual=0.0, converged=True,
                           lipschitz=L, matvecs=1, exact_solves=0, polished=False,
                           float32_iters=0)
    kkt_gate = max(10.0 * tol * lam, _KKT_FLOOR * aty_max)
    matvecs, exact_solves = 1, 0
    x, Ax = np.zeros(n), np.zeros(m)
    w, Aw = x, Ax
    # the gradient at the zero start
    grad = -aty
    t = 1.0
    signs = np.zeros(n)
    stable = 0
    if prob.float32:
        P, floor = A.astype(np.float32), math.sqrt(n) * _EPS32
    else:
        P, floor = A, _STEP_FLOOR
    float32_iters, polished = 0, None
    for iters in range(1, max_iter + 1):
        if iters > 1:
            grad = _product(P.T, Aw - y)
            matvecs += 1
        L *= _L_SHRINK
        while True:
            step = w - grad / L
            x_new = np.sign(step) * np.maximum(np.abs(step) - lam / L, 0.0)
            Ax_new = _product(P, x_new)
            matvecs += 1
            # sufficient decrease f(x_new) <= f(w) + grad.d + (L/2)|d|^2 of the
            # quadratic part f, which is exactly |A d|^2 <= L |d|^2.  A d is a
            # difference of carried products, so |d| is floored at the
            # rounding level of the iterate; otherwise rounding alone would
            # keep doubling L once the iterates settle.
            d = x_new - w
            Ad = Ax_new - Aw
            dd = float(d @ d)
            dd_floor = floor**2 * float(x_new @ x_new)
            if float(Ad @ Ad) <= L * max(dd, dd_floor) or L >= L_max:
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
        signs_new = np.sign(x_new)
        stable = 0 if (signs_new != signs).any() else stable + 1
        x, Ax, t, signs = x_new, Ax_new, t_new, signs_new
        finish = stable == _POLISH_AFTER and np.count_nonzero(signs) <= m
        # decided before the hand-over, so a step below the float32 floor
        # hands over without a check, and only a float64 step reaches one
        check = iters == max_iter or (P is A and dd < dd_floor)
        if P is not A and (dd < dd_floor or finish or iters == max_iter):
            # float64 for good, before any check reads A x; dropping the copy
            # frees its bytes for the finisher's arrays
            P, floor, float32_iters = A, _STEP_FLOOR, iters
            Ax, Aw = A @ x, A @ w
            matvecs += 2
        if check:
            kkt = _kkt_residual(A.T @ (Ax - y), x, lam)
            matvecs += 1
            if kkt <= kkt_gate:
                break
        if finish:
            polished, products, solves, gram = _polish(A, y, lam, signs, kkt_gate)
            matvecs += products
            exact_solves += solves
            if polished is None:
                # x has the support of signs, in the same order, so gram is its A_S^T A_S
                pattern, products, solves = _feature_sign(A, y, lam, x, kkt_gate, aty, gram)
                matvecs += products
                exact_solves += solves
                if pattern is not None and not np.array_equal(pattern, signs):
                    polished, products, solves, _ = _polish(A, y, lam, pattern, kkt_gate)
                    matvecs += products
                    exact_solves += solves
            if polished is not None:
                x, kkt = polished
                break
    return LassoResult(x_hat=x, iters=iters, kkt_residual=kkt, converged=kkt <= kkt_gate,
                       lipschitz=L, matvecs=matvecs, exact_solves=exact_solves,
                       polished=polished is not None, float32_iters=float32_iters)


def empirical_metrics(x_hat: np.ndarray, inst: Instance,
                      xi: float) -> tuple[float, float, float]:
    """Per-trial (MSE, on-support rate, off-support rate) at hard threshold xi.

    ValueError unless x_hat has x0's shape: a column (n, 1) would broadcast to n x n.
    """
    _check_positive("xi", xi)
    if x_hat.shape != inst.x0.shape:
        raise ValueError(f"x_hat has shape {x_hat.shape}, expected {inst.x0.shape}")
    n = inst.x0.shape[0]
    k = inst.support.shape[0]
    mse = float(np.sum((x_hat - inst.x0) ** 2)) / n
    on = np.abs(x_hat[inst.support])
    phi_on = float(np.count_nonzero(on >= xi)) / k
    # the off-support entries at most xi: all such entries less those on the support
    off_small = np.count_nonzero(np.abs(x_hat) <= xi) - np.count_nonzero(on <= xi)
    phi_off = float(off_small) / (n - k)
    return mse, phi_on, phi_off


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent, deterministic random stream for one trial."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))


def _mean_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(values.mean())
    se = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
    return mean, se


def _report(cell: list[tuple]) -> EmpiricalReport:
    """The report of one cell, given its trials as rows in EmpiricalReport's column order."""
    mse, phi_on, phi_off, iters, kkt, converged = zip(*cell)
    return EmpiricalReport(mse, phi_on, phi_off, iters, kkt, converged,
                           *_mean_se(np.array(mse)), *_mean_se(np.array(phi_on)),
                           *_mean_se(np.array(phi_off)))


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
    lambda.  Trials are solved in order on the calling thread and all drawn
    on the one worker thread of a `ThreadPoolExecutor`: while trial i is
    solved, the worker draws trial i + 1 into the other of two m x n buffers
    allocated once per run, so at most two instances are alive at a time.
    The reports equal, bit for bit, those of drawing and solving the trials
    one after another.  The executor is shut down, and its worker
    joined, before run_grid returns or raises, and an exception raised by a
    draw is raised here; a prior whose nonzero mass is not cfg.kappa is a
    ValueError before any draw.  Each report holds its trials as tuple columns
    (mse, phi_on, phi_off, iters, kkt_residual, converged; tuples so that
    reports compare by value); non-converged runs are recorded, not dropped.
    """
    m = _check_run(cfg, p, n, trials, seed)
    _check_positive("xi", xi)
    lambdas = tuple(lambdas)
    if not lambdas or not all(0.0 < lam < math.inf for lam in lambdas):
        raise ValueError(
            f"lambdas must be a nonempty list of positive finite values, got {lambdas}")
    buffers = (np.empty((m, n)), np.empty((m, n)))

    def draw(i: int) -> Instance:
        return generate_instance(cfg, p, n, _trial_rng(seed, i), out=buffers[i % 2])

    # imported here: concurrent.futures loads logging, about 4 ms that every
    # import of this module would pay, a simulate-mode SweepSpec's check among them
    from concurrent.futures import ThreadPoolExecutor

    cells: list[list[tuple]] = [[] for _ in lambdas]
    with ThreadPoolExecutor(max_workers=1, thread_name_prefix="lasso-mismatch-draw") as pool:
        ahead = pool.submit(draw, 0)
        for i in range(trials):
            # once inst moves on, trial i - 1 is no longer read, so its buffer
            # is free; the draw goes first, since at n = 1024 it takes about
            # as long as the trial's set-up and solve
            inst = ahead.result()
            if i + 1 < trials:
                ahead = pool.submit(draw, i + 1)
            prob = _prepare(inst.A, inst.y)
            for lam, cell in zip(lambdas, cells):
                res = _solve(prob, lam, _TOL, _MAX_ITER)
                cell.append((*empirical_metrics(res.x_hat, inst, xi),
                             res.iters, res.kkt_residual, res.converged))
    return tuple(_report(cell) for cell in cells)


def run_trials(
    cfg: ModelConfig,
    p: Prior,
    n: int,
    trials: int,
    xi: float,
    seed: int,
) -> EmpiricalReport:
    """Run independent trials at cfg.lam and aggregate means and standard errors.

    The one-lambda case of `run_grid`: the report, columns and all, equals,
    bit for bit, the cell of cfg.lam in any grid run with the same arguments.
    """
    return run_grid(cfg, p, n, trials, xi, seed, (cfg.lam,))[0]
