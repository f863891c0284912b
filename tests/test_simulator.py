"""Simulator tests: instance structure, solver correctness against trivial
cases and a coordinate-descent oracle, step certification, the exact solve on
the identified support, metric counting, the trial-first lambda grid, and
determinism."""

import functools
import math
import os
import subprocess
import sys
import threading
import time
import weakref

import numpy as np
import pytest

from lasso_mismatch import cli, simulator
from lasso_mismatch.predictor import ModelConfig, predict_mse, solve_scalar
from lasso_mismatch.prior import sparse_bernoulli
from lasso_mismatch.simulator import (
    Instance,
    empirical_metrics,
    generate_instance,
    round_count,
    run_grid,
    run_trials,
    solve_lasso,
)
from oracles import cd_lasso, two_matrix_instance

CFG = ModelConfig(delta=0.8, kappa=0.1, eps2=0.1, sigma_z2=0.2, lam=1.201)
PRIOR = sparse_bernoulli(0.1)


def lasso_objective(A, y, lam, x):
    r = y - A @ x
    return 0.5 * float(r @ r) + lam * float(np.abs(x).sum())


class TestGenerateInstance:
    def test_dimensions_and_support_size(self):
        rng = np.random.default_rng(0)
        inst = generate_instance(CFG, PRIOR, 256, rng)
        assert inst.A.shape == (205, 256)
        assert inst.y.shape == (205,)
        assert inst.support.shape == (26,)  # round(0.1 * 256)
        off = np.setdiff1d(np.arange(256), inst.support)
        assert np.all(inst.x0[off] == 0.0)
        assert np.all(inst.x0[inst.support] == 1.0)

    def test_rounding_rule(self):
        assert round_count(25.6) == 26
        assert round_count(204.8) == 205
        assert round_count(0.5) == 1

    def test_entry_variance(self):
        rng = np.random.default_rng(1)
        inst = generate_instance(CFG, PRIOR, 256, rng)
        n = 256
        sample_var = inst.A.var()
        # variance of the sample variance of N Gaussians is ~ 2 var^2 / N
        se = (1.0 / n) * math.sqrt(2.0 / (inst.A.size - 1))
        assert abs(sample_var - 1.0 / n) <= 4 * se

    def test_determinism(self):
        a = generate_instance(CFG, PRIOR, 64, np.random.default_rng(42))
        b = generate_instance(CFG, PRIOR, 64, np.random.default_rng(42))
        assert np.array_equal(a.x0, b.x0)
        assert np.array_equal(a.A, b.A)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.support, b.support)

    @pytest.mark.parametrize("n", [8, 64, 256])
    @pytest.mark.parametrize("seed", [0, 5])
    def test_out_matches_normal_recipe(self, n, seed):
        # A filled in place equals, bit for bit, the rng.normal draw it
        # replaced, and so do the draws after it; the support values equal
        # those of a draw of atom indices
        rng = np.random.default_rng(seed)
        m, k = round_count(CFG.delta * n), round_count(CFG.kappa * n)
        support = np.sort(rng.choice(n, size=k, replace=False))
        x0 = np.zeros(n)
        values, probs = zip(*PRIOR.nonzero_atoms())
        x0[support] = np.array(values)[rng.choice(len(values), size=k, p=probs)]
        A = rng.normal(0.0, 1.0 / math.sqrt(n), size=(m, n))
        s = math.sqrt(CFG.sigma_z2 + CFG.eps2 * float(x0 @ x0) / n)
        y = CFG.gamma * (A @ x0) + rng.normal(0.0, s, size=m)
        buf = np.full((m, n), np.nan)
        into = generate_instance(CFG, PRIOR, n, np.random.default_rng(seed), out=buf)
        fresh = generate_instance(CFG, PRIOR, n, np.random.default_rng(seed))
        assert into.A is buf
        for inst in (into, fresh):
            assert inst.A.tobytes() == A.tobytes()
            assert inst.y.tobytes() == y.tobytes()
            assert inst.x0.tobytes() == x0.tobytes()
            assert np.array_equal(inst.support, support)

    def test_out_validation(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        m, n = 51, 64
        read_only = np.empty((m, n))
        read_only.flags.writeable = False
        for bad in (np.empty((m, n + 1)), np.empty((m, n), dtype=np.float32),
                    np.empty((n, m)).T, np.empty((m, 2 * n))[:, ::2], read_only):
            with pytest.raises(ValueError, match="out must be"):
                generate_instance(CFG, PRIOR, n, rng, out=bad)
        # the checks come before any draw
        assert rng.bit_generator.state == state
        inst = generate_instance(CFG, PRIOR, n, rng, out=np.empty((m, n), order="C"))
        assert inst.A.shape == (m, n)

    def test_degenerate_support_errors(self):
        rng = np.random.default_rng(0)
        small = ModelConfig(delta=0.8, kappa=0.01, eps2=0.1, sigma_z2=0.2, lam=1.0)
        with pytest.raises(ValueError):
            generate_instance(small, sparse_bernoulli(0.01), 8, rng)
        with pytest.raises(ValueError):
            generate_instance(CFG, PRIOR, 4, rng)
        few = ModelConfig(delta=0.01, kappa=0.1, eps2=0.1, sigma_z2=0.2, lam=1.0)
        with pytest.raises(ValueError, match="m=0"):
            generate_instance(few, PRIOR, 10, rng)

    def test_size_beyond_the_float_range_errors(self):
        # delta n = inf, and an n no float can hold, used to raise OverflowError
        huge = ModelConfig(delta=1e308, kappa=0.1, eps2=0.1, sigma_z2=0.1, lam=1.0)
        for cfg, n in ((huge, 10), (CFG, 10**400)):
            with pytest.raises(ValueError, match=f"n={n}"):
                generate_instance(cfg, PRIOR, n, np.random.default_rng(0))
            with pytest.raises(ValueError, match=f"n={n}"):
                run_grid(cfg, PRIOR, n=n, trials=1, xi=1e-3, seed=0, lambdas=(1.0,))

    def test_law_of_y_given_A(self):
        # y - gamma A x0 is N(0, s^2) noise independent of A x0, and y agrees
        # in its second moments with the two-matrix draw y = H x0 + z,
        # A = gamma H + eps Omega; entries pooled over draws are iid here
        # because every x0 has the same norm
        cfg = ModelConfig(delta=0.8, kappa=0.1, eps2=0.5, sigma_z2=0.2, lam=1.0)
        rng = np.random.default_rng(7)
        ref_rng = np.random.default_rng(8)
        n = 128
        r, ax0, y, ref_ax0, ref_y = [], [], [], [], []
        for _ in range(200):
            inst = generate_instance(cfg, PRIOR, n, rng)
            s2 = cfg.sigma_z2 + cfg.eps2 * float(inst.x0 @ inst.x0) / n
            ax = inst.A @ inst.x0
            r.append((inst.y - cfg.gamma * ax) / math.sqrt(s2))
            ax0.append(ax)
            y.append(inst.y)
            A_ref, y_ref = two_matrix_instance(cfg, inst.x0, inst.y.size, ref_rng)
            ref_ax0.append(A_ref @ inst.x0)
            ref_y.append(y_ref)
        r, ax0, y, ref_ax0, ref_y = map(np.concatenate, (r, ax0, y, ref_ax0, ref_y))
        size = r.size
        assert abs(r.var() - 1.0) <= 4 * math.sqrt(2.0 / (size - 1))
        assert abs(np.corrcoef(r, ax0)[0, 1]) <= 4 / math.sqrt(size)
        for ours, ref in ((y * y, ref_y * ref_y), (y * ax0, ref_y * ref_ax0)):
            se = math.hypot(ours.std(ddof=1), ref.std(ddof=1)) / math.sqrt(size)
            assert abs(ours.mean() - ref.mean()) <= 4 * se


class TestSolveLasso:
    def test_zero_solution_at_large_lambda(self):
        rng = np.random.default_rng(2)
        inst = generate_instance(CFG, PRIOR, 64, rng)
        lam = float(np.max(np.abs(inst.A.T @ inst.y)))
        res = solve_lasso(inst.A, inst.y, lam * 1.000001)
        assert np.all(res.x_hat == 0.0)
        assert res.converged

    def test_identity_matrix_separates(self):
        rng = np.random.default_rng(3)
        n = 32
        y = rng.normal(0.0, 1.0, n)
        lam = 0.4
        res = solve_lasso(np.eye(n), y, lam)
        expected = np.sign(y) * np.maximum(np.abs(y) - lam, 0.0)
        assert np.array_equal(res.x_hat, expected)

    def test_objective_not_worse_than_coordinate_descent(self):
        rng = np.random.default_rng(4)
        A = rng.normal(0.0, 1.0, (20, 40)) / math.sqrt(40)
        x = np.zeros(40)
        x[rng.choice(40, 4, replace=False)] = rng.normal(0, 1, 4)
        y = A @ x + 0.05 * rng.normal(0, 1, 20)
        lam = 0.05
        ours = solve_lasso(A, y, lam)
        reference = cd_lasso(A, y, lam)
        assert lasso_objective(A, y, lam, ours.x_hat) <= lasso_objective(A, y, lam, reference) + 1e-8

    def test_kkt_residual_quality(self):
        rng = np.random.default_rng(5)
        cfg = CFG.with_lam(0.301)
        good = 0
        trials = 20
        for _ in range(trials):
            inst = generate_instance(cfg, PRIOR, 128, rng)
            res = solve_lasso(inst.A, inst.y, cfg.lam)
            if res.kkt_residual <= 1e-6 * cfg.lam:
                good += 1
        assert good / trials >= 0.95

    def test_input_validation(self):
        with pytest.raises(ValueError):
            solve_lasso(np.eye(4), np.zeros(4), 0.0)
        with pytest.raises(ValueError):
            solve_lasso(np.eye(4), np.zeros(3), 1.0)
        with pytest.raises(ValueError, match=r"^\|\|A\|\|_F\^2 must be positive"):
            solve_lasso(np.zeros((3, 4)), np.ones(3), 1.0)
        # nonzero, but every squared entry underflows: ||A||_F^2 is 0 in floating point
        tiny = 1e-170 * np.random.default_rng(0).normal(size=(3, 4))
        with pytest.raises(ValueError, match=r"^\|\|A\|\|_F\^2 must be positive"):
            solve_lasso(tiny, np.ones(3), 1.0)
        with pytest.raises(ValueError, match="finite"):
            solve_lasso(np.eye(4), np.array([1.0, np.nan, 0.0, 0.0]), 1.0)
        with pytest.raises(ValueError, match="finite"):
            solve_lasso(np.diag([1.0, np.inf, 1.0, 1.0]), np.ones(4), 1.0)
        for lam in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="lam"):
                solve_lasso(np.eye(4), np.ones(4), lam)
        for tol in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="tol"):
                solve_lasso(np.eye(4), np.ones(4), 1.0, tol=tol)
        for max_iter in (0, -1):
            with pytest.raises(ValueError, match="max_iter must be at least 1"):
                solve_lasso(np.eye(4), np.ones(4), 1.0, max_iter=max_iter)

    def test_scale_of_A_within_the_normal_range(self):
        # the solution of the scaled problem (s A, s y, s^2 lam) is the same x
        G = np.random.default_rng(0).normal(size=(3, 4))
        x0 = np.array([1.0, 0.0, 0.0, 2.0])
        x_ref = solve_lasso(G, G @ x0, 1e-3).x_hat
        for s in (1e-150, 1e150):
            A = s * G
            res = solve_lasso(A, A @ x0, 1e-3 * s * s)
            assert res.converged
            np.testing.assert_allclose(res.x_hat, x_ref, rtol=0.0, atol=1e-8)
        # below the normal range the gradient is subnormal and cannot certify x
        for s in (1e-155, 1e-160):
            A = s * G
            with pytest.raises(ValueError, match=r"^\|\|A\|\|_F\^2 must be positive"):
                solve_lasso(A, A @ x0, 1e-3 * s * s)


class TestStepCertification:
    def test_power_iteration_blind_spot(self):
        # rank one, with the flat vector in its null space: a power-iteration
        # start would read 0 although ||A||_2^2 = 10
        A = np.array([[1.0, -1.0], [2.0, -2.0]])
        y = np.array([1.0, 0.5])
        lam = 0.3
        res = solve_lasso(A, y, lam)
        assert res.converged
        assert res.kkt_residual <= 10 * 1e-10 * lam
        assert res.lipschitz <= 2 * 10.0
        ref = lasso_objective(A, y, lam, cd_lasso(A, y, lam))
        assert lasso_objective(A, y, lam, res.x_hat) == pytest.approx(ref, abs=1e-8)

    def test_underestimated_lipschitz_constant(self):
        # the start, the largest squared column norm, falls well short of
        # ||A||_2^2 on a Gaussian draw, so a plain 1/start step would
        # overshoot 1/L unless backtracking raises it
        rng = np.random.default_rng(0)
        A = rng.normal(0.0, 1.0, (51, 64)) / 8.0
        exact = np.linalg.norm(A, 2) ** 2
        assert float(np.max(np.sum(A * A, axis=0))) < 0.5 * exact
        x0 = np.zeros(64)
        x0[rng.choice(64, 6, replace=False)] = 1.0
        y = A @ x0 + 0.1 * rng.normal(0.0, 1.0, 51)
        lam = 0.05
        ref = lasso_objective(A, y, lam, cd_lasso(A, y, lam))
        res = solve_lasso(A, y, lam)
        assert res.converged
        assert res.kkt_residual <= 10 * 1e-10 * lam
        # L only doubles past a quotient |A d|^2/|d|^2 <= ||A||_2^2
        assert res.lipschitz <= 2 * exact
        assert lasso_objective(A, y, lam, res.x_hat) == pytest.approx(ref, abs=1e-8)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_rounding_level_steps_do_not_inflate_the_step_constant(self, seed):
        # at a tiny lambda on a badly scaled square system the iterates settle
        # to within rounding long before the KKT gate is met; A d then is all
        # rounding and must not be read as a failed decrease test
        rng = np.random.default_rng(seed)
        A = 20.0 * rng.normal(size=(68, 67))
        y = 80.0 * rng.normal(size=68)
        lam = 1e-6 * float(np.max(np.abs(A.T @ y)))
        res = solve_lasso(A, y, lam, max_iter=2000)
        assert res.lipschitz <= 2 * np.linalg.norm(A, 2) ** 2

    def test_step_constant_comes_back_down(self):
        # one column of norm 10 beside a Gaussian block B, on rows of its
        # own that y leaves at zero: its gradient stays zero, but it sets the
        # start L = 100 far above ||B||_2^2, the curvature along the steps
        # taken.  Each iteration tries L * 0.9 first, so L falls to the scale
        # of ||B||_2^2 while every accepted step stays certified
        rng = np.random.default_rng(4)
        B = rng.normal(0.0, 1.0, (20, 40)) / math.sqrt(40)
        A = np.zeros((21, 41))
        A[0, 0] = 10.0
        A[1:, 1:] = B
        x = np.zeros(41)
        x[1 + rng.choice(40, 4, replace=False)] = rng.normal(0, 1, 4)
        y = A @ x + 0.05 * np.append(0.0, rng.normal(0, 1, 20))
        lam = 0.05
        exact = np.linalg.norm(B, 2) ** 2
        assert 100.0 > 20 * exact
        res = solve_lasso(A, y, lam)
        assert res.converged
        assert res.lipschitz <= 2 * exact
        ref = cd_lasso(A, y, lam)
        assert lasso_objective(A, y, lam, res.x_hat) == pytest.approx(
            lasso_objective(A, y, lam, ref), abs=1e-8)
        assert np.max(np.abs(res.x_hat - ref)) <= 1e-8


class _CountingMatrix(np.ndarray):
    """An array that counts its matrix products; slices and A.T count too."""

    products = 0

    def __matmul__(self, other):
        _CountingMatrix.products += 1
        return np.asarray(self) @ np.asarray(other)


class TestSolveCounts:
    def _count(self, A, y, lam):
        _CountingMatrix.products = 0
        res = solve_lasso(A.view(_CountingMatrix), y, lam)
        return res, _CountingMatrix.products

    def test_matvecs_count_every_product(self):
        rng = np.random.default_rng(11)
        cfg = CFG.with_lam(0.05)
        inst = generate_instance(cfg, PRIOR, 64, rng)
        res, products = self._count(inst.A, inst.y, cfg.lam)
        assert res.polished
        assert res.matvecs == products
        # two products per iteration, and at least eleven more for
        # backtracking retries, KKT checks and exact solves
        assert res.matvecs > 2 * res.iters + 10
        plain = solve_lasso(inst.A, inst.y, cfg.lam)
        assert np.array_equal(plain.x_hat, res.x_hat)
        assert (plain.matvecs, plain.polished) == (res.matvecs, res.polished)

    def test_fista_exit_is_not_polished(self):
        # above lam_max the zero start is optimal: one gradient, one step
        # and one KKT check
        rng = np.random.default_rng(2)
        inst = generate_instance(CFG, PRIOR, 64, rng)
        lam = 1.000001 * float(np.max(np.abs(inst.A.T @ inst.y)))
        res, products = self._count(inst.A, inst.y, lam)
        assert not res.polished
        assert res.iters == 1
        assert res.matvecs == products == 3


class TestFeatureSign:
    FIG2 = ModelConfig(delta=0.8, kappa=0.1, eps2=0.2, sigma_z2=0.2, lam=0.01)

    def _instance(self, n, index):
        return generate_instance(self.FIG2, PRIOR, n, simulator._trial_rng(0, index))

    def _spy(self, monkeypatch):
        calls = []
        search = simulator._feature_sign

        def spy(A, y, lam, x, *rest):
            out = search(A, y, lam, x, *rest)
            calls.append((np.count_nonzero(x), out[0]))
            return out

        monkeypatch.setattr(simulator, "_feature_sign", spy)
        return calls

    def test_small_lambda_ends_at_the_first_settled_pattern(self, monkeypatch):
        # fig-2 grid at lambda = 0.01, trial 2 of seed 0: FISTA alone took 457
        # iterations; the search corrects the second settled pattern (198 of
        # m = 205 entries) and the exact solve on its result is accepted
        calls = self._spy(monkeypatch)
        inst = self._instance(256, 2)
        lam = self.FIG2.lam
        res = solve_lasso(inst.A, inst.y, lam)
        assert res.polished and res.converged
        assert res.iters <= 250
        assert any(pattern is not None for _, pattern in calls)
        # the output depends only on (A, y, lam, pattern)
        gate = max(10 * 1e-10 * lam,
                   simulator._KKT_FLOOR * float(np.max(np.abs(inst.A.T @ inst.y))))
        exact = simulator._polish(inst.A, inst.y, lam, np.sign(res.x_hat), gate)[0]
        assert np.array_equal(res.x_hat, exact[0])
        # coordinate descent from zero agrees to 3e-10 here but needs 7,050
        # sweeps at |S| = 195 of 205; started at x_hat it must find no
        # coordinate to move, and a fixed point of coordinate descent is the
        # minimiser of this convex objective
        ref = cd_lasso(inst.A, inst.y, lam, start=res.x_hat)
        assert np.max(np.abs(res.x_hat - ref)) <= 1e-8

    def test_no_pattern_grows_past_m_entries(self, monkeypatch):
        # fig-2 at lambda = 0.01, n = 64: the iterates of iterations 20-25
        # share a settled pattern of 61 > m = 51 entries, which is not tried
        inst = self._instance(64, 1)
        m = inst.A.shape[0]
        lam = self.FIG2.lam
        sizes = []
        for name in ("_polish", "_feature_sign"):
            helper = getattr(simulator, name)

            def spy(A, y, lam, pattern, *rest, _helper=helper):
                out = _helper(A, y, lam, pattern, *rest)
                sizes.append((np.count_nonzero(pattern), out[0] is not None))
                return out

            monkeypatch.setattr(simulator, name, spy)
        settled = {tuple(np.sign(solve_lasso(inst.A, inst.y, lam, max_iter=k).x_hat))
                   for k in range(20, 26)}
        assert len(settled) == 1 and np.count_nonzero(settled.pop()) == 61
        res = solve_lasso(inst.A, inst.y, lam)
        assert sizes and all(k <= m for k, _ in sizes)
        # the search runs from |S| = m: the first exact solve there is
        # rejected, and the search's pattern is accepted
        assert sizes[:3] == [(m, False), (m, True), (m - 1, True)]
        assert res.polished and res.converged
        # coordinate descent started at x_hat finds no coordinate to move
        ref = cd_lasso(inst.A, inst.y, lam, start=res.x_hat)
        assert np.max(np.abs(res.x_hat - ref)) <= 1e-8

        # a search from m entries whose QP solution keeps its signs, with
        # y = A_S x_S + lam A_S^{-T} theta, declines to add a violator
        # beyond m; with only the m columns of S the same start is optimal
        rng = np.random.default_rng(0)
        m, n = 8, 12
        A = rng.normal(size=(m, n))
        theta = np.where(rng.random(m) < 0.5, -1.0, 1.0)
        A_s = A[:, :m]
        y = A_s @ (theta * rng.uniform(0.5, 1.5, m)) + lam * np.linalg.solve(A_s.T, theta)
        x_qp = np.linalg.solve(A_s.T @ A_s, A_s.T @ y - lam * theta)
        assert np.array_equal(np.sign(x_qp), theta)
        assert np.max(np.abs(A[:, m:].T @ (A_s @ x_qp - y))) > 2 * lam
        x = np.zeros(n)
        x[:m] = 0.5 * x_qp
        # the inverse, one step to the QP solution and one gradient
        assert simulator._feature_sign(A, y, lam, x, A @ x - y, A.T @ y, 1e-9) == (None, 3, 1)
        pattern, _, _ = simulator._feature_sign(A_s, y, lam, x[:m], A_s @ x[:m] - y,
                                                A_s.T @ y, 1e-9)
        assert np.array_equal(pattern, theta)

    @staticmethod
    def _parallel_columns(factor):
        # column 1 is factor times column 0, so no pattern holding both can
        # be solved exactly
        rng = np.random.default_rng(0)
        A = rng.normal(size=(12, 16))
        A[:, 1] = factor * A[:, 0]
        y = A[:, 0] + 0.1 * rng.normal(size=12)
        return A, y, 0.5 * float(A[:, 0] @ y)

    @pytest.mark.parametrize("factor", [1.0, 2.0], ids=["equal", "doubled"])
    def test_parallel_columns_reach_the_optimum(self, factor):
        A, y, lam_mid = self._parallel_columns(factor)
        for lam in (0.05, lam_mid):
            res = solve_lasso(A, y, lam)
            ref = cd_lasso(A, y, lam)
            assert res.converged
            assert lasso_objective(A, y, lam, res.x_hat) == pytest.approx(
                lasso_objective(A, y, lam, ref), rel=1e-12, abs=1e-14)
            assert np.max(np.abs(A @ (res.x_hat - ref))) <= 1e-8

    def test_declines_a_dependent_column(self):
        # from x = e_0 the search steps to the solution on {0}, where column
        # 1 = 2 column 0 violates by lam; its Schur complement is zero, so the
        # search declines after the inverse, the step, the gradient and the
        # violator's Gram column.  A column equal to an active one cannot get
        # here: its gradient is that of the active column, within the gate.
        A, y, lam = self._parallel_columns(2.0)
        aty = A.T @ y
        assert int(np.argmax(np.abs(aty))) == 1
        x = np.zeros(16)
        x[0] = 0.01
        assert simulator._feature_sign(A, y, lam, x, A @ x - y, aty, 1e-12) == (None, 4, 1)

    def test_gives_up_after_its_step_budget(self, monkeypatch):
        # from x = 0 the search adds at most one entry a step, and this
        # optimum has 46 entries: it gives up after _SEARCH_STEPS = 32 steps,
        # and with a larger budget the same search finds the optimum's pattern
        rng = np.random.default_rng(0)
        A = rng.normal(size=(60, 80))
        y = rng.normal(size=60)
        aty = A.T @ y
        lam = 0.05 * float(np.max(np.abs(aty)))
        x = np.zeros(80)
        assert simulator._feature_sign(A, y, lam, x, -y, aty, 1e-9)[0] is None
        monkeypatch.setattr(simulator, "_SEARCH_STEPS", 200)
        pattern = simulator._feature_sign(A, y, lam, x, -y, aty, 1e-9)[0]
        ref = cd_lasso(A, y, lam)
        assert np.count_nonzero(ref) == 46
        assert np.array_equal(pattern, np.sign(ref))

    def test_singular_gram_is_declined(self):
        # a zero column makes A_S^T A_S exactly singular: the exact solve
        # and the search's first inverse both decline (solve_lasso never
        # puts a zero column in a pattern, since its gradient is zero)
        rng = np.random.default_rng(0)
        A = rng.normal(size=(12, 16))
        A[:, 3] = 0.0
        y = rng.normal(size=12)
        signs = np.zeros(16)
        signs[[2, 3, 5]] = 1.0
        assert simulator._polish(A, y, 0.1, signs, 1e-9) == (None, 2, 1)
        x = 0.1 * signs
        assert simulator._feature_sign(A, y, 0.1, x, A @ x - y, A.T @ y, 1e-9) == (None, 1, 1)

    def test_counts_cover_the_search(self, monkeypatch):
        # every product of the search reaches matvecs, and every dense
        # factorization reaches exact_solves: here the solve of a rejected
        # pattern, the inverse the search starts from and the solve of the
        # accepted pattern
        factorizations = []
        for name in ("solve", "inv"):
            original = getattr(np.linalg, name)

            def counting(*args, _original=original, **kwargs):
                factorizations.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        inst = self._instance(256, 2)
        _CountingMatrix.products = 0
        res = solve_lasso(inst.A.view(_CountingMatrix), inst.y, self.FIG2.lam)
        assert res.polished
        assert res.matvecs == _CountingMatrix.products
        assert res.exact_solves == len(factorizations) == 3

    def test_fuzz_against_coordinate_descent(self, monkeypatch):
        # small problems with column scales spread over two decades and an
        # overall scale over six, at lambda from 1% to half of lambda_max
        calls = self._spy(monkeypatch)
        for seed in range(100):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(4, 21))
            n = int(rng.integers(4, 25))
            scale = 10 ** rng.uniform(-3, 3)
            A = rng.normal(0.0, scale, (m, n)) * 10 ** rng.uniform(-1, 1, n)
            y = rng.normal(0.0, scale, m)
            lam = 10 ** rng.uniform(-2, -0.3) * float(np.max(np.abs(A.T @ y)))
            res = solve_lasso(A, y, lam)
            ref = cd_lasso(A, y, lam)
            assert res.converged, seed
            f_ref = lasso_objective(A, y, lam, ref)
            assert lasso_objective(A, y, lam, res.x_hat) <= f_ref * (1 + 1e-12), seed
            assert np.max(np.abs(res.x_hat - ref)) <= 1e-7 * np.max(np.abs(ref)), seed
        assert sum(pattern is not None for _, pattern in calls) >= 20


class TestKktGate:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_gate_has_a_rounding_floor(self, seed):
        # at lambda = 1e-6 ||A^T y||_inf on a near-square system the absolute
        # gate 10*tol*lambda is below the rounding of A^T r, so without a
        # floor at a few ulps of ||A^T y||_inf the solve never converges
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(40, 39))
        y = rng.normal(size=40)
        aty = float(np.max(np.abs(A.T @ y)))
        res = solve_lasso(A, y, 1e-6 * aty, max_iter=5000)
        assert res.converged
        assert res.iters < 5000
        assert res.kkt_residual <= 64 * np.finfo(float).eps * aty


class TestPolish:
    def test_polished_result_is_certified(self, monkeypatch):
        returned = []
        polish = simulator._polish

        def spy(*args):
            out = polish(*args)
            if out[0] is not None:
                returned.append(out[0])
            return out

        monkeypatch.setattr(simulator, "_polish", spy)
        rng = np.random.default_rng(11)
        cfg = CFG.with_lam(0.05)
        inst = generate_instance(cfg, PRIOR, 64, rng)
        res = solve_lasso(inst.A, inst.y, cfg.lam)
        assert returned, "the exact solve on the support was never accepted"
        assert res.x_hat is returned[-1][0]
        assert res.converged
        assert res.kkt_residual <= 10 * 1e-10 * cfg.lam
        ref = lasso_objective(inst.A, inst.y, cfg.lam, cd_lasso(inst.A, inst.y, cfg.lam))
        ours = lasso_objective(inst.A, inst.y, cfg.lam, res.x_hat)
        assert ours == pytest.approx(ref, abs=1e-8)

    def test_wrong_pattern_is_rejected(self):
        rng = np.random.default_rng(12)
        cfg = CFG.with_lam(0.3)
        inst = generate_instance(cfg, PRIOR, 64, rng)
        gate = 10 * 1e-10 * cfg.lam
        signs = np.sign(cd_lasso(inst.A, inst.y, cfg.lam))
        active = np.flatnonzero(signs)
        assert simulator._polish(inst.A, inst.y, cfg.lam, signs, gate)[0] is not None
        dropped = signs.copy()
        dropped[active[np.argmax(np.abs(inst.A[:, active].T @ inst.y))]] = 0.0
        flipped = signs.copy()
        flipped[active[0]] *= -1.0
        for wrong in (dropped, flipped):
            assert simulator._polish(inst.A, inst.y, cfg.lam, wrong, gate)[0] is None

    def test_full_square_support_is_solved(self):
        # with |S| = m the restricted system is square and generically
        # invertible; skipping the exact solve there leaves FISTA alone on a
        # badly scaled 31 x 31 problem, which it does not finish in 5000 steps
        rng = np.random.default_rng(98)
        m = rng.integers(6, 81)
        n = rng.integers(max(2, m - 4), m + 1)
        scale = 10 ** rng.uniform(-3, 3)
        A = rng.normal(0.0, scale, (m, n))
        y = rng.normal(0.0, scale, m)
        assert (m, n) == (31, 31)
        res = solve_lasso(A, y, 1e-6 * float(np.max(np.abs(A.T @ y))), max_iter=5000)
        assert np.count_nonzero(res.x_hat) == m
        assert res.converged
        assert res.iters < 5000


    def test_refinement_lets_a_badly_scaled_solve_converge(self, monkeypatch):
        # at lambda = 1e-6 ||A^T y||_inf on this 64 x 62 problem (cond 574) the
        # exact solve on the right sign pattern misses the 64-ulp gate floor by
        # rounding alone; without the refinement step all 29 exact-solve
        # attempts were rejected and FISTA did not finish in 5000 steps
        returned = []
        polish = simulator._polish

        def spy(*args):
            out = polish(*args)
            if out[0] is not None:
                returned.append(out[0])
            return out

        monkeypatch.setattr(simulator, "_polish", spy)
        rng = np.random.default_rng(10)
        m = int(rng.integers(6, 81))
        n = int(rng.integers(2, m + 1))
        scale = 10 ** rng.uniform(-3, 3)
        A = rng.normal(0.0, scale, (m, n))
        y = rng.normal(0.0, scale, m)
        assert (m, n) == (64, 62)
        aty = float(np.max(np.abs(A.T @ y)))
        res = solve_lasso(A, y, 1e-6 * aty, max_iter=5000)
        assert returned, "the exact solve on the support was never accepted"
        assert res.x_hat is returned[-1][0]
        assert res.converged
        assert res.iters < 5000
        assert res.kkt_residual <= 64 * np.finfo(float).eps * aty


class TestEmpiricalMetrics:
    def _tiny_instance(self):
        n, m = 4, 3
        x0 = np.array([0.0, 2.0, 0.0, 0.0])
        support = np.array([1])
        A = np.zeros((m, n))
        y = np.zeros(m)
        return Instance(x0=x0, A=A, y=y, support=support)

    def test_exact_recovery(self):
        inst = self._tiny_instance()
        assert empirical_metrics(inst.x0.copy(), inst, xi=0.5) == (0.0, 1.0, 1.0)

    def test_zero_estimate(self):
        inst = self._tiny_instance()
        mse, phi_on, phi_off = empirical_metrics(np.zeros(4), inst, xi=0.5)
        assert mse == pytest.approx(4.0 / 4.0)  # ||x0||^2 / n
        assert phi_on == 0.0
        assert phi_off == 1.0

    def test_hand_enumerated_case(self):
        inst = self._tiny_instance()
        x_hat = np.array([0.6, 1.0, 0.4, 0.0])
        mse, phi_on, phi_off = empirical_metrics(x_hat, inst, xi=0.5)
        assert mse == pytest.approx((0.36 + 1.0 + 0.16) / 4.0)
        assert phi_on == 1.0          # |1.0| >= 0.5
        assert phi_off == pytest.approx(2.0 / 3.0)  # 0.4 and 0.0 pass, 0.6 fails

    def test_counts_are_rational_with_right_denominator(self):
        rng = np.random.default_rng(6)
        inst = generate_instance(CFG, PRIOR, 64, rng)
        res = solve_lasso(inst.A, inst.y, CFG.lam)
        _, phi_on, phi_off = empirical_metrics(res.x_hat, inst, xi=1e-3)
        k = inst.support.size
        n = inst.x0.size
        assert (phi_on * k) == pytest.approx(round(phi_on * k), abs=1e-9)
        assert (phi_off * (n - k)) == pytest.approx(round(phi_off * (n - k)), abs=1e-9)

    def test_xi_validation(self):
        inst = self._tiny_instance()
        for xi in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="xi"):
                empirical_metrics(np.zeros(4), inst, xi=xi)


class TestRunTrials:
    def test_aggregates_match_trials(self):
        rep = run_trials(CFG, PRIOR, n=64, trials=6, xi=1e-3, seed=9)
        mses = np.array([t.mse for t in rep.trials])
        assert rep.mean_mse == pytest.approx(mses.mean(), abs=1e-15)
        assert rep.se_mse == pytest.approx(mses.std(ddof=1) / math.sqrt(6), abs=1e-15)
        assert rep.n == 64 and rep.seed == 9

    def test_single_trial_has_zero_se(self):
        rep = run_trials(CFG, PRIOR, n=64, trials=1, xi=1e-3, seed=3)
        assert rep.se_mse == 0.0
        assert rep.se_phi_on == 0.0
        assert rep.se_phi_off == 0.0

    def test_bitwise_determinism_across_runs(self):
        a = run_trials(CFG, PRIOR, n=64, trials=8, xi=1e-3, seed=17)
        b = run_trials(CFG, PRIOR, n=64, trials=8, xi=1e-3, seed=17)
        assert a.mean_mse == b.mean_mse
        assert a.se_mse == b.se_mse
        assert a.mean_phi_on == b.mean_phi_on
        assert a.mean_phi_off == b.mean_phi_off
        for ta, tb in zip(a.trials, b.trials):
            assert ta == tb

    def test_nonconverged_counted_not_dropped(self, monkeypatch):
        # starve the solver at a lambda small enough that zero is never optimal
        monkeypatch.setattr(simulator, "solve_lasso", functools.partial(solve_lasso, max_iter=2))
        cfg = CFG.with_lam(0.301)
        rep = run_trials(cfg, PRIOR, n=64, trials=3, xi=1e-3, seed=1)
        assert len(rep.trials) == 3
        assert rep.nonconverged_trials == 3
        for t in rep.trials:
            assert not t.converged
            assert math.isfinite(t.mse)

    def test_validation(self):
        with pytest.raises(ValueError):
            run_trials(CFG, PRIOR, n=64, trials=0, xi=1e-3, seed=0)
        with pytest.raises(ValueError):
            run_trials(CFG, PRIOR, n=64, trials=1, xi=1e-3, seed=-1)


class TestRunGrid:
    GRID = (0.05, 0.41, 1.201)

    def test_cells_match_run_trials(self):
        reports = run_grid(CFG, PRIOR, n=64, trials=5, xi=1e-3, seed=21, lambdas=self.GRID)
        assert len(reports) == len(self.GRID)
        for lam, cell in zip(self.GRID, reports):
            alone = run_trials(CFG.with_lam(lam), PRIOR, n=64, trials=5, xi=1e-3, seed=21)
            assert cell == alone

    def test_one_lambda_sweep_row_equals_grid_row(self):
        base = "--delta 0.8 --kappa 0.1 --eps2 0.2 --snr 0.5 --mode simulate --n 64 --trials 4"
        one = cli.run_sweep(cli.parse_args((base + " --lambda-list 0.41").split()))
        grid = cli.run_sweep(cli.parse_args((base + " --lambda-list 0.01,0.41,1.21").split()))
        assert one[0] == grid[1]

    @staticmethod
    def _count_instances(monkeypatch) -> list:
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return generate_instance(*args, **kwargs)

        monkeypatch.setattr(simulator, "generate_instance", counting)
        return calls

    def test_instance_generated_once_per_trial(self, monkeypatch):
        calls = self._count_instances(monkeypatch)
        run_grid(CFG, PRIOR, n=64, trials=4, xi=1e-3, seed=2, lambdas=self.GRID)
        assert len(calls) == 4

    def test_at_most_two_instances_alive(self, monkeypatch):
        # the next trial is drawn while the current one is solved, into the
        # buffer of the trial before, which is no longer referenced
        made = []
        alive_before = []
        buffers = set()

        def tracking(*args, **kwargs):
            alive_before.append(sum(ref() is not None for ref in made))
            inst = generate_instance(*args, **kwargs)
            made.append(weakref.ref(inst))
            buffers.add(inst.A.ctypes.data)
            return inst

        monkeypatch.setattr(simulator, "generate_instance", tracking)
        before = threading.active_count()
        run_grid(CFG, PRIOR, n=64, trials=6, xi=1e-3, seed=2, lambdas=self.GRID)
        assert len(alive_before) == 6
        assert alive_before[0] == 0
        assert max(alive_before) <= 1
        assert len(buffers) <= 2
        # the executor's worker is joined on a normal return too
        assert threading.active_count() == before

    def test_equals_sequential_loop(self):
        # drawing ahead on a helper thread changes no bit of any report, also
        # with the threads switching every microsecond
        n, trials, seed, xi = 64, 8, 13, 1e-3
        cells = [[] for _ in self.GRID]
        for i in range(trials):
            inst = generate_instance(CFG, PRIOR, n, simulator._trial_rng(seed, i))
            for lam, cell in zip(self.GRID, cells):
                res = solve_lasso(inst.A, inst.y, lam)
                cell.append(simulator.TrialResult(
                    *empirical_metrics(res.x_hat, inst, xi),
                    res.iters, res.kkt_residual, res.converged))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reports = run_grid(CFG, PRIOR, n=n, trials=trials, xi=xi, seed=seed,
                               lambdas=self.GRID)
        finally:
            sys.setswitchinterval(interval)
        assert reports == tuple(simulator._report(cell, n, seed) for cell in cells)

    def test_draw_error_is_raised_and_helper_joined(self, monkeypatch):
        boom = RuntimeError("draw failed")
        drawn = []

        def failing(*args, **kwargs):
            drawn.append(threading.current_thread())
            if len(drawn) == 3:
                raise boom
            return generate_instance(*args, **kwargs)

        monkeypatch.setattr(simulator, "generate_instance", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            run_grid(CFG, PRIOR, n=64, trials=6, xi=1e-3, seed=2, lambdas=self.GRID)
        assert info.value is boom
        assert len(drawn) == 3
        assert threading.active_count() == before
        # trial 0 is drawn on the calling thread, the others on helpers
        assert drawn[0] is threading.current_thread()
        assert not any(t.is_alive() for t in drawn[1:])

    def test_solve_error_joins_helper(self, monkeypatch):
        drawn = []
        solves = []

        def drawing(*args, **kwargs):
            drawn.append(threading.current_thread())
            # a slow draw, still running when the solve fails unless joined
            time.sleep(0.05)
            return generate_instance(*args, **kwargs)

        def failing(*args, **kwargs):
            solves.append(1)
            if len(solves) == 5:
                raise RuntimeError("solve failed")
            return solve_lasso(*args, **kwargs)

        monkeypatch.setattr(simulator, "generate_instance", drawing)
        monkeypatch.setattr(simulator, "solve_lasso", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="solve failed"):
            run_grid(CFG, PRIOR, n=64, trials=6, xi=1e-3, seed=2, lambdas=self.GRID)
        # the fifth solve is in trial 1, while trial 2 is drawn
        assert len(drawn) == 3
        assert threading.active_count() == before
        # trial 0 is drawn on the calling thread, the others on helpers
        assert drawn[0] is threading.current_thread()
        assert not any(t.is_alive() for t in drawn[1:])

    def test_package_import_loads_no_executor(self):
        # run_grid imports concurrent.futures itself, so the logging it loads
        # costs nothing to an interpreter that only imports the package
        code = ("import sys, lasso_mismatch, lasso_mismatch.cli; "
                "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
        src = os.path.dirname(os.path.dirname(os.path.abspath(simulator.__file__)))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
        assert done.stdout.strip() == "[]"

    def test_bad_size_fails_before_any_instance(self, monkeypatch):
        calls = self._count_instances(monkeypatch)
        for n, xi, match in ((4, 1e-3, "n must be at least 8"), (64, 0.0, "xi")):
            with pytest.raises(ValueError, match=match):
                run_grid(CFG, PRIOR, n=n, trials=4, xi=xi, seed=2, lambdas=self.GRID)
        assert calls == []

    def test_validation(self):
        for bad in ((), (0.5, 0.0), (math.nan,), (0.5, math.inf)):
            with pytest.raises(ValueError, match="lambdas"):
                run_grid(CFG, PRIOR, n=64, trials=1, xi=1e-3, seed=0, lambdas=bad)


class TestConvergenceInProblemSize:
    def test_gap_to_theory_shrinks(self):
        # the distance between empirical means and the scalar-theory value
        # should not grow with n, within twice the standard error
        sol = solve_scalar(CFG, PRIOR)
        theory = predict_mse(sol, CFG, PRIOR)
        gaps = []
        ses = []
        for n in (64, 256, 1024):
            trials = 50 if n <= 256 else 30
            rep = run_trials(CFG, PRIOR, n=n, trials=trials, xi=1e-3, seed=100)
            gaps.append(abs(rep.mean_mse - theory))
            ses.append(rep.se_mse)
        assert gaps[1] <= gaps[0] + 2 * math.hypot(ses[0], ses[1])
        assert gaps[2] <= gaps[1] + 2 * math.hypot(ses[1], ses[2])
