"""Simulator tests: instance structure, solver correctness against trivial
cases and a coordinate-descent oracle, step certification, the exact solve on
the identified support, metric counting, the trial-first lambda grid,
determinism, and the Monte Carlo against the theory over the parameter range."""

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
from lasso_mismatch.prior import Prior, sparse_bernoulli
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
from stress_lasso import problem as stress_problem

CFG = ModelConfig(delta=0.8, kappa=0.1, eps2=0.1, sigma_z2=0.2, lam=1.201)
PRIOR = sparse_bernoulli(0.1)
# three signed nonzero atoms whose masses sum to CFG.kappa
SIGNED = Prior(((-1.5, 0.03), (0.0, 0.9), (0.5, 0.05), (2.0, 0.02)))


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
    @pytest.mark.parametrize("seed, prior", [
        pytest.param(0, PRIOR, id="0"), pytest.param(5, PRIOR, id="5"),
        pytest.param(5, SIGNED, id="signed-5"),
    ])
    def test_out_matches_normal_recipe(self, n, seed, prior):
        # A filled in place equals, bit for bit, the rng.normal draw it
        # replaced, and so do the draws after it; the support values equal
        # those of a draw of atom indices
        rng = np.random.default_rng(seed)
        m, k = round_count(CFG.delta * n), round_count(CFG.kappa * n)
        support = np.sort(rng.choice(n, size=k, replace=False))
        x0 = np.zeros(n)
        values, probs = zip(*prior.nonzero_atoms())
        x0[support] = np.array(values)[rng.choice(len(values), size=k, p=probs)]
        A = rng.normal(0.0, 1.0 / math.sqrt(n), size=(m, n))
        s = math.sqrt(CFG.sigma_z2 + CFG.eps2 * float(x0 @ x0) / n)
        y = CFG.gamma * (A @ x0) + rng.normal(0.0, s, size=m)
        buf = np.full((m, n), np.nan)
        into = generate_instance(CFG, prior, n, np.random.default_rng(seed), out=buf)
        fresh = generate_instance(CFG, prior, n, np.random.default_rng(seed))
        assert into.A is buf
        for inst in (into, fresh):
            assert inst.A.tobytes() == A.tobytes()
            assert inst.y.tobytes() == y.tobytes()
            assert inst.x0.tobytes() == x0.tobytes()
            assert np.array_equal(inst.support, support)

    def test_support_values_follow_the_renormalized_masses(self):
        # pooled over 300 instances from the trial substreams, each value's
        # frequency on the support is its mass over kappa, within 4 SE
        n = 64
        draws = np.concatenate([
            inst.x0[inst.support] for inst in (
                generate_instance(CFG, SIGNED, n, simulator._trial_rng(3, i))
                for i in range(300))])
        assert draws.size == 300 * round_count(CFG.kappa * n)
        for value, weight in SIGNED.nonzero_atoms():
            se = math.sqrt(weight * (1.0 - weight) / draws.size)
            assert abs(float(np.mean(draws == value)) - weight) <= 4.0 * se, value
        assert set(np.unique(draws)) == {-1.5, 0.5, 2.0}

    def test_prior_mass_must_be_kappa(self):
        # kappa sets k = round(kappa n) and the theory reads the prior's
        # nonzero mass: sparse_bernoulli(0.2) under kappa = 0.1 used to
        # simulate kappa = 0.1 against a theory for 0.2
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        wide = sparse_bernoulli(0.2)
        with pytest.raises(ValueError, match=r"nonzero mass 0\.2 differs from kappa=0\.1"):
            generate_instance(CFG, wide, 64, rng)
        assert rng.bit_generator.state == state
        # run_trials goes through run_grid's check
        with pytest.raises(ValueError, match="nonzero mass"):
            run_trials(CFG, wide, n=64, trials=2, xi=1e-3, seed=0)
        # a rounding-level difference is the same model
        near = Prior(((0.0, 0.9 - 1e-13), (1.0, 0.1 + 1e-13)))
        assert generate_instance(CFG, near, 64, rng).support.size == 6

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

    @pytest.mark.parametrize("seed", [6, 16, 21])
    def test_integer_and_float32_A_give_the_float64_answer(self, seed):
        # A is solved as its float64 values: an integer A would truncate the
        # iterate to integers in its products (these seeds then ran 20,000
        # iterations, non-converged), and a float32 A would run the float64
        # phase and the exact solves in float32
        rng = np.random.default_rng(seed)
        m, n = rng.integers(5, 40), rng.integers(5, 40)
        A = rng.integers(-3, 4, (m, n))
        y = rng.normal(size=m)
        lam = 10 ** rng.uniform(-4, 0) * float(np.max(np.abs(A.T @ y)))
        ref = solve_lasso(A.astype(np.float64), y, lam)
        for dtype in (np.int64, np.float32):
            res = solve_lasso(A.astype(dtype), y, lam)
            assert np.array_equal(res.x_hat, ref.x_hat), dtype
            assert (res.converged, res.iters) == (ref.converged, ref.iters), dtype

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
        for A in (np.ones(3), np.ones((3, 4, 2))):
            with pytest.raises(ValueError, match="2-D"):
                solve_lasso(A, np.ones(3), 1.0)

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


    @pytest.mark.parametrize("lam", [0.01, 0.05, 0.2])
    def test_float64_step_floor_ends_a_solve_no_exact_solve_certifies(self, lam):
        # column 7 duplicates column 3, so on a pattern holding one of them
        # A_S^T A_S is singular or nearly so, and neither the exact solve nor
        # the search certifies it.  FISTA's own exit ends the solve: a
        # float64 step below its rounding floor runs the KKT check, well
        # before max_iter (without that check every solve here runs all
        # 20,000 iterations)
        rng = np.random.default_rng(3)
        A = rng.normal(0.0, 1.0, (40, 60)) / math.sqrt(60)
        A[:, 7] = A[:, 3]
        x0 = np.zeros(60)
        x0[[3, 10, 20]] = 1.0
        y = A @ x0 + 0.05 * rng.normal(0.0, 1.0, 40)
        res = solve_lasso(A, y, lam)
        assert res.converged and not res.polished
        assert res.iters <= 500
        ref = lasso_objective(A, y, lam, cd_lasso(A, y, lam))
        assert lasso_objective(A, y, lam, res.x_hat) == pytest.approx(ref, rel=1e-12)


class _CountingMatrix(np.ndarray):
    """An array that counts its matrix products; slices and A.T count too."""

    products = 0

    def __matmul__(self, other):
        _CountingMatrix.products += 1
        return np.asarray(self) @ np.asarray(other)


class TestSolveCounts:
    def _count(self, A, y, lam, **kwargs):
        _CountingMatrix.products = 0
        res = solve_lasso(A.view(_CountingMatrix), y, lam, **kwargs)
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

    def _lam_max_instance(self):
        inst = generate_instance(CFG, PRIOR, 64, np.random.default_rng(2))
        return inst, float(np.max(np.abs(inst.A.T @ inst.y)))

    def test_zero_exit_above_lam_max(self):
        # above lam_max = ||A^T y||_inf the zero start is optimal with KKT
        # residual 0: one product, A^T y, and no iteration
        inst, lam_max = self._lam_max_instance()
        res, products = self._count(inst.A, inst.y, 1.000001 * lam_max)
        assert res.iters == 0
        assert res.matvecs == products == 1
        assert res.kkt_residual == 0.0
        assert res.converged and not res.polished
        assert res.float32_iters == 0
        assert not res.x_hat.any()

    def test_loop_runs_just_below_lam_max(self):
        inst, lam_max = self._lam_max_instance()
        lam = (1.0 - 1e-6) * lam_max
        res, products = self._count(inst.A, inst.y, lam)
        assert res.iters >= 1 and res.converged
        assert res.matvecs == products
        ref = cd_lasso(inst.A, inst.y, lam)
        assert np.max(np.abs(res.x_hat - ref)) <= 1e-8

    @pytest.mark.parametrize("seed, max_iter", [(13, 200), (600, 23)])
    def test_counts_through_a_hand_over_and_a_max_iter_exit(self, seed, max_iter, monkeypatch):
        # stress seed 13 hands over to float64 and then stops at max_iter.
        # Seed 600 is still in float32 at max_iter = 23, one iteration before
        # its pattern's exact solve is due: max_iter hands over, and its one
        # KKT check, which misses the gate, reads A x formed in float64 at
        # the hand-over
        calls = []
        kkt_residual = simulator._kkt_residual

        def spy(*args):
            calls.append(1)
            return kkt_residual(*args)

        monkeypatch.setattr(simulator, "_kkt_residual", spy)
        res, products = self._count(*stress_problem(seed), max_iter=max_iter)
        assert res.iters == max_iter and not res.converged
        assert res.matvecs == products
        if seed == 13:
            assert 0 < res.float32_iters < res.iters
        else:
            assert (len(calls), res.float32_iters, res.matvecs) == (1, max_iter, 53)


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

    @staticmethod
    def _search(A, y, lam, x, gate):
        # the search as solve_lasso calls it, with A^T y and the Gram matrix
        # of x's support formed beforehand
        A_s = A[:, np.flatnonzero(x)]
        return simulator._feature_sign(A, y, lam, x, gate, A.T @ y, A_s.T @ A_s)

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
        # r, one step to the QP solution and one gradient
        assert self._search(A, y, lam, x, 1e-9) == (None, 3, 1)
        pattern, _, _ = self._search(A_s, y, lam, x[:m], 1e-9)
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
        # search declines after r, the step, the gradient and the violator's
        # Gram column.  A column equal to an active one cannot get here: its
        # gradient is that of the active column, within the gate.
        A, y, lam = self._parallel_columns(2.0)
        assert int(np.argmax(np.abs(A.T @ y))) == 1
        x = np.zeros(16)
        x[0] = 0.01
        assert self._search(A, y, lam, x, 1e-12) == (None, 4, 1)

    def test_gives_up_after_its_step_budget(self, monkeypatch):
        # from x = 0 the search adds at most one entry a step, and this
        # optimum has 46 entries: it gives up after _SEARCH_STEPS = 32 steps,
        # and with a larger budget the same search finds the optimum's pattern
        rng = np.random.default_rng(0)
        A = rng.normal(size=(60, 80))
        y = rng.normal(size=60)
        lam = 0.05 * float(np.max(np.abs(A.T @ y)))
        x = np.zeros(80)
        assert self._search(A, y, lam, x, 1e-9)[0] is None
        monkeypatch.setattr(simulator, "_SEARCH_STEPS", 200)
        pattern = self._search(A, y, lam, x, 1e-9)[0]
        ref = cd_lasso(A, y, lam)
        assert np.count_nonzero(ref) == 46
        assert np.array_equal(pattern, np.sign(ref))

    def test_singular_gram_is_declined(self):
        # a zero column makes A_S^T A_S exactly singular: the exact solve
        # and the search's Cholesky factor both decline (solve_lasso never
        # puts a zero column in a pattern, since its gradient is zero)
        rng = np.random.default_rng(0)
        A = rng.normal(size=(12, 16))
        A[:, 3] = 0.0
        y = rng.normal(size=12)
        signs = np.zeros(16)
        signs[[2, 3, 5]] = 1.0
        found, products, solves, gram = simulator._polish(A, y, 0.1, signs, 1e-9)
        assert (found, products, solves) == (None, 2, 1)
        assert gram.shape == (3, 3) and not gram[1].any()
        # the search gets the Gram matrix _polish formed; it takes r and the
        # factorization that fails
        x = 0.1 * signs
        assert simulator._feature_sign(A, y, 0.1, x, 1e-9, A.T @ y, gram) == (None, 1, 1)

    @pytest.mark.parametrize("k", [1, 2, 3, 47, 200, 257])
    def test_cholesky_inverse_matches_linalg_inv(self, k):
        # the search's starting inverse L^-T L^-1 against LAPACK's LU inverse,
        # on Gram matrices with condition numbers up to 32; sizes 3, 47, 200
        # and 257 leave a shorter last pair in some passes of _tril_inv
        rng = np.random.default_rng(k)
        A_s = rng.normal(size=(2 * k + 10, k))
        gram = A_s.T @ A_s
        L = np.linalg.cholesky(gram)
        L_inv = simulator._tril_inv(L)
        assert not np.triu(L_inv, 1).any()
        eye = np.eye(k)
        assert np.max(np.abs(L @ L_inv - eye)) <= 1e-13
        ref = np.linalg.inv(gram)
        inv = L_inv.T @ L_inv
        assert np.array_equal(inv, inv.T)
        assert np.max(np.abs(inv - ref)) <= 1e-13 * np.max(np.abs(ref))

    def test_counts_cover_the_search(self, monkeypatch):
        # every product of the search reaches matvecs, and every dense
        # factorization reaches exact_solves: here the solve of a rejected
        # pattern, the Cholesky factor the search starts from and the solve
        # of the accepted pattern
        factorizations = []
        for name in ("solve", "inv", "cholesky"):
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

    @pytest.mark.parametrize("g", [[0.05, math.nan], [math.nan, 0.05]],
                             ids=["on-support", "off-support"])
    def test_nan_gradient_cannot_certify(self, g):
        # a NaN entry of the gradient, on the support or off it, makes the
        # residual NaN, which fails every gate
        res = simulator._kkt_residual(np.array(g), np.array([0.0, 1.0]), 0.1)
        assert math.isnan(res)


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


class TestFloat32Phase:
    FIG2 = ModelConfig(delta=0.8, kappa=0.1, eps2=0.2, sigma_z2=0.2, lam=0.01)
    # an exact power of two that takes ||A||_F and ||y|| past float32's
    # range: the scaled problem runs in float64 throughout, with the same
    # arithmetic bit for bit, so its x is the float64 solver's answer
    SCALE = 2.0**100

    def _instance(self, n):
        return generate_instance(self.FIG2, PRIOR, n, simulator._trial_rng(0, 0))

    def _float64(self, A, y, lam, **kwargs):
        s = self.SCALE
        res = solve_lasso(s * A, s * y, s * s * lam, **kwargs)
        assert res.float32_iters == 0
        return res

    @pytest.mark.parametrize("n, lam", [(256, 0.01), (256, 0.41), (256, 2.81), (1024, 0.41)])
    def test_float32_pattern_gives_the_float64_answer(self, n, lam):
        # fig-2 cells: the float32 iterations find the pattern without a
        # hand-over, and the certified x is the exact solve on that pattern,
        # bit for bit the x of float64 iterations (at lam = 2.81, above
        # lam_max, both return x = 0 before any iteration, iters 0)
        inst = self._instance(n)
        res = solve_lasso(inst.A, inst.y, lam)
        assert res.converged
        assert res.float32_iters == res.iters
        gate = max(10 * 1e-10 * lam,
                   simulator._KKT_FLOOR * float(np.max(np.abs(inst.A.T @ inst.y))))
        exact = simulator._polish(inst.A, inst.y, lam, np.sign(res.x_hat), gate)[0]
        assert exact is not None and np.array_equal(res.x_hat, exact[0])
        ref = self._float64(inst.A, inst.y, lam)
        assert np.array_equal(res.x_hat, ref.x_hat)
        assert res.iters == ref.iters

    @pytest.mark.parametrize("seed", [13, 100, 220, 229, 287, 600])
    def test_unsettled_float32_hands_over(self, seed):
        # stress-recipe problems (tests/stress_lasso.py) that float32 cannot
        # finish.  Seeds 13 (73 x 73), 100, 220 (65 x 65, cond 3.4e3), 229
        # and 287 hand over when their pattern is due for the exact solve,
        # after 33, 51, 39, 16 and 52 iterations, although their steps hover
        # around the float32 floor without falling below it; the solve and
        # the search fail, and float64 iterations go on to max_iter.  Seed
        # 600 (27 x 24) hands over at its due exact solve after 24, where
        # the search certifies the pattern, so no float64 iteration runs.
        # Each ends as float64 iterations alone end.
        A, y, lam = stress_problem(seed)
        res = solve_lasso(A, y, lam, max_iter=5000)
        ref = self._float64(A, y, lam, max_iter=5000)
        if seed == 600:
            assert res.float32_iters == res.iters == 24
        else:
            assert 0 < res.float32_iters < res.iters
        assert res.float32_iters <= 64
        assert res.converged == ref.converged
        assert res.converged == (seed == 600)
        if res.converged:
            assert np.array_equal(res.x_hat, ref.x_hat)

    @pytest.mark.parametrize("max_iter", [1, 2, 3])
    def test_max_iter_exit_reads_a_float64_residual(self, max_iter):
        # stopped inside the float32 phase, the solve reports the residual
        # of A x formed afresh in float64, not of the float32-carried A x
        inst = self._instance(256)
        lam = 0.41
        res = solve_lasso(inst.A, inst.y, lam, max_iter=max_iter)
        assert res.iters == res.float32_iters == max_iter
        x = res.x_hat
        assert res.kkt_residual == simulator._kkt_residual(
            inst.A.T @ (inst.A @ x - inst.y), x, lam)

    def test_inputs_outside_the_float32_range_run_in_float64(self):
        G = np.random.default_rng(0).normal(size=(3, 4))
        x0 = np.array([1.0, 0.0, 0.0, 2.0])
        for s in (1e-150, 1e150):
            A = s * G
            assert solve_lasso(A, A @ x0, 1e-3 * s * s).float32_iters == 0
        # ||y|| / ||A||_F, the scale of x, beyond the range on its own
        assert solve_lasso(G, 1e25 * (G @ x0), 1e22).float32_iters == 0
        assert solve_lasso(G, G @ x0, 1e-3).float32_iters > 0

    def test_peak_memory_is_one_float32_copy(self):
        # fig-2 at n = 512, lam = 1.21: the float32 copy of A (4 m n bytes)
        # is freed before the finisher makes its arrays (A_S, m |S| doubles,
        # and a few |S| x |S| ones), so the peak stays within the two plus
        # a few dozen vectors; a second copy or a float64 temporary of A
        # (8 m n bytes) does not
        import tracemalloc

        inst = self._instance(512)
        m, n = inst.A.shape
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = solve_lasso(inst.A, inst.y, 1.21)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert res.polished and res.float32_iters == res.iters
        k = np.count_nonzero(res.x_hat)
        assert 4 * m * n <= peak <= 4 * m * n + 8 * (m * k + 3 * k * k) + 32 * 8 * (m + n)


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

    def test_entries_at_xi_count_in_both_rates(self):
        # |x_hat| == xi passes both tests: >= xi on the support, <= xi off it
        inst = self._tiny_instance()
        x_hat = np.array([-0.5, 0.5, 0.5, 0.7])
        _, phi_on, phi_off = empirical_metrics(x_hat, inst, xi=0.5)
        assert phi_on == 1.0
        assert phi_off == 2.0 / 3.0  # -0.5 and 0.5 pass, 0.7 fails

    def test_counts_are_rational_with_right_denominator(self):
        rng = np.random.default_rng(6)
        inst = generate_instance(CFG, PRIOR, 64, rng)
        res = solve_lasso(inst.A, inst.y, CFG.lam)
        _, phi_on, phi_off = empirical_metrics(res.x_hat, inst, xi=1e-3)
        k = inst.support.size
        n = inst.x0.size
        assert (phi_on * k) == pytest.approx(round(phi_on * k), abs=1e-9)
        assert (phi_off * (n - k)) == pytest.approx(round(phi_off * (n - k)), abs=1e-9)

    def test_estimate_must_have_the_shape_of_x0(self):
        # a column (n, 1) would broadcast against x0 into an n x n difference
        inst = generate_instance(CFG, PRIOR, 64, np.random.default_rng(0))
        x_hat = solve_lasso(inst.A, inst.y, 0.41).x_hat
        for bad in (x_hat[:, None], x_hat[:1]):
            with pytest.raises(ValueError, match="shape"):
                empirical_metrics(bad, inst, xi=1e-3)

    def test_xi_validation(self):
        inst = self._tiny_instance()
        for xi in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="xi"):
                empirical_metrics(np.zeros(4), inst, xi=xi)


class TestRunTrials:
    def test_aggregates_match_trials(self):
        rep = run_trials(CFG, PRIOR, n=64, trials=6, xi=1e-3, seed=9)
        for name in ("mse", "phi_on", "phi_off"):
            col = np.array(getattr(rep, name))
            assert col.shape == (6,)
            assert getattr(rep, "mean_" + name) == pytest.approx(col.mean(), abs=1e-15)
            assert getattr(rep, "se_" + name) == pytest.approx(
                col.std(ddof=1) / math.sqrt(6), abs=1e-15)

    def test_single_trial_has_zero_se(self):
        rep = run_trials(CFG, PRIOR, n=64, trials=1, xi=1e-3, seed=3)
        assert rep.se_mse == 0.0
        assert rep.se_phi_on == 0.0
        assert rep.se_phi_off == 0.0

    def test_bitwise_determinism_across_runs(self):
        a = run_trials(CFG, PRIOR, n=64, trials=8, xi=1e-3, seed=17)
        b = run_trials(CFG, PRIOR, n=64, trials=8, xi=1e-3, seed=17)
        assert a == b

    def test_nonconverged_counted_not_dropped(self, monkeypatch):
        # starve run_grid's solves at a lambda small enough that zero is never optimal
        monkeypatch.setattr(simulator, "_MAX_ITER", 2)
        cfg = CFG.with_lam(0.301)
        rep = run_trials(cfg, PRIOR, n=64, trials=3, xi=1e-3, seed=1)
        for col in (rep.mse, rep.phi_on, rep.phi_off, rep.iters, rep.kkt_residual,
                    rep.converged):
            assert len(col) == 3
        assert rep.nonconverged_trials == 3
        assert rep.converged == (False,) * 3
        assert all(math.isfinite(mse) for mse in rep.mse)

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
                cell.append((*empirical_metrics(res.x_hat, inst, xi),
                             res.iters, res.kkt_residual, res.converged))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            reports = run_grid(CFG, PRIOR, n=n, trials=trials, xi=xi, seed=seed,
                               lambdas=self.GRID)
        finally:
            sys.setswitchinterval(interval)
        # each column against the loop itself, so a column swapped inside
        # _report cannot pass on both sides
        names = ("mse", "phi_on", "phi_off", "iters", "kkt_residual", "converged")
        for rep, cell in zip(reports, cells):
            for j, name in enumerate(names):
                assert getattr(rep, name) == tuple(row[j] for row in cell), name
        assert reports == tuple(simulator._report(cell) for cell in cells)

    def test_prepared_solves_equal_solve_lasso(self, monkeypatch):
        # run_grid checks and forms each trial's lambda-independent data once;
        # each of its solves equals solve_lasso on the same instance, bit for
        # bit, on a fig-2 grid whose lambda = 0.01 runs the feature-sign
        # search and whose lambda = 50 exits at x = 0
        instances, solves, searches = [], [], []
        prepare, solve, search = simulator._prepare, simulator._solve, simulator._feature_sign

        def preparing(A, y):
            # copies, since the next draws reuse the buffers
            instances.append((A.copy(), y.copy()))
            return prepare(A, y)

        def solving(prob, lam, tol, max_iter):
            res = solve(prob, lam, tol, max_iter)
            solves.append((len(instances) - 1, lam, res))
            return res

        def searching(*args):
            out = search(*args)
            searches.append(out[0] is not None)
            return out

        monkeypatch.setattr(simulator, "_prepare", preparing)
        monkeypatch.setattr(simulator, "_solve", solving)
        monkeypatch.setattr(simulator, "_feature_sign", searching)
        fig2 = ModelConfig(delta=0.8, kappa=0.1, eps2=0.2, sigma_z2=0.2, lam=0.01)
        run_grid(fig2, PRIOR, n=128, trials=3, xi=1e-3, seed=0, lambdas=(0.01, 0.41, 50.0))
        monkeypatch.undo()
        assert len(instances) == 3
        assert [(i, lam) for i, lam, _ in solves] == [
            (i, lam) for i in range(3) for lam in (0.01, 0.41, 50.0)]
        assert any(searches)
        for i, lam, res in solves:
            plain = solve_lasso(*instances[i], lam)
            assert (res.iters == 0) == (lam == 50.0)
            assert np.array_equal(res.x_hat, plain.x_hat)
            assert (res.iters, res.kkt_residual, res.matvecs, res.exact_solves) == (
                plain.iters, plain.kkt_residual, plain.matvecs, plain.exact_solves)

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
        # every trial is drawn on the worker, which is joined
        assert all(t.name.startswith("lasso-mismatch-draw") for t in drawn)
        assert not any(t.is_alive() for t in drawn)

    def test_solve_error_joins_helper(self, monkeypatch):
        drawn = []
        solves = []

        def drawing(*args, **kwargs):
            drawn.append(threading.current_thread())
            # a slow draw, still running when the solve fails unless joined
            time.sleep(0.05)
            return generate_instance(*args, **kwargs)

        solve = simulator._solve

        def failing(*args, **kwargs):
            solves.append(1)
            if len(solves) == 5:
                raise RuntimeError("solve failed")
            return solve(*args, **kwargs)

        monkeypatch.setattr(simulator, "generate_instance", drawing)
        monkeypatch.setattr(simulator, "_solve", failing)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="solve failed"):
            run_grid(CFG, PRIOR, n=64, trials=6, xi=1e-3, seed=2, lambdas=self.GRID)
        # the fifth solve is in trial 1, while trial 2 is drawn
        assert len(drawn) == 3
        assert threading.active_count() == before
        # every trial is drawn on the worker, which is joined
        assert all(t.name.startswith("lasso-mismatch-draw") for t in drawn)
        assert not any(t.is_alive() for t in drawn)

    def test_single_trial_is_drawn_on_a_joined_worker(self, monkeypatch):
        drawn = []

        def drawing(*args, **kwargs):
            drawn.append(threading.current_thread())
            return generate_instance(*args, **kwargs)

        monkeypatch.setattr(simulator, "generate_instance", drawing)
        before = threading.active_count()
        run_grid(CFG, PRIOR, n=64, trials=1, xi=1e-3, seed=2, lambdas=self.GRID)
        assert len(drawn) == 1
        assert drawn[0].name.startswith("lasso-mismatch-draw")
        assert not drawn[0].is_alive()
        assert threading.active_count() == before

    def test_package_resolves_simulator_names_on_first_use(self):
        import lasso_mismatch

        for name in simulator.__all__:
            assert getattr(lasso_mismatch, name) is getattr(simulator, name)
        with pytest.raises(AttributeError, match="no_such_name"):
            lasso_mismatch.no_such_name

    @staticmethod
    def _fresh_interpreter(code: str) -> str:
        src = os.path.dirname(os.path.dirname(os.path.abspath(simulator.__file__)))
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": src}, timeout=60, check=True)
        return done.stdout.strip()

    def test_simulator_import_loads_no_executor(self):
        # run_grid imports concurrent.futures itself, so the logging it loads
        # costs nothing to an interpreter that imports the simulator but
        # runs no grid, as a simulate-mode SweepSpec's check does
        code = ("import sys, lasso_mismatch.cli, lasso_mismatch.simulator; "
                "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))")
        assert self._fresh_interpreter(code) == "[]"

    def test_package_resolves_the_simulator_module_on_first_use(self):
        code = ("import sys, lasso_mismatch; before = 'numpy' in sys.modules; "
                "solve = lasso_mismatch.simulator.solve_lasso; "
                "print(before, solve.__module__, 'numpy' in sys.modules)")
        assert self._fresh_interpreter(code) == "False lasso_mismatch.simulator True"

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


class TestTheoryOverTheParameterRange:
    def test_debiased_estimate_has_the_theory_noise_level(self):
        # By the KKT conditions x_hat = eta(v; lam / c) for the debiased
        # estimate v = x_hat + A^T (y - A x_hat) / c, c = (m - k_hat) / n, and
        # the theory says v - gamma x0 is N(0, tau*^2) entrywise, so
        # z = (tau_emp / tau* - 1) sqrt(2n), tau_emp = RMS(v - gamma x0), is
        # about standard normal per trial (its spread is wider: tau varies
        # between instances at finite n).  A wrong law of y given A shifts
        # the pooled mean.  One trial at each of 40 configurations over the
        # whole range; every other one has a random discrete prior whose
        # nonzero atoms take either sign.
        n, count = 512, 40
        rng = np.random.default_rng(1313)

        def log_uniform(lo, hi):
            return math.exp(rng.uniform(math.log(lo), math.log(hi)))

        z = []
        for i in range(count):
            delta = log_uniform(0.3, 3.0)
            kappa = rng.uniform(0.02, 0.3) * min(1.0, delta)
            cfg = ModelConfig(delta=delta, kappa=kappa, eps2=rng.uniform(0.0, 0.9),
                              sigma_z2=log_uniform(0.01, 2.0), lam=log_uniform(0.05, 3.0))
            if i % 2:
                atoms = int(rng.integers(1, 4))
                values = [rng.choice((-1.0, 1.0)) * log_uniform(0.1, 3.0) for _ in range(atoms)]
                masses = kappa * rng.dirichlet(np.ones(atoms))
                prior = Prior(((0.0, 1.0 - kappa), *zip(values, masses)))
            else:
                prior = sparse_bernoulli(kappa)
            inst = generate_instance(cfg, prior, n, rng)
            res = solve_lasso(inst.A, inst.y, cfg.lam)
            assert res.converged, cfg
            c = (inst.y.size - np.count_nonzero(res.x_hat)) / n
            v = res.x_hat + inst.A.T @ (inst.y - inst.A @ res.x_hat) / c
            tau_emp = math.sqrt(float(np.mean((v - cfg.gamma * inst.x0) ** 2)))
            z.append((tau_emp / solve_scalar(cfg, prior).tau_star - 1.0) * math.sqrt(2 * n))
        z = np.array(z)
        assert np.abs(z).max() <= 10.0, z
        se = float(z.std(ddof=1)) / math.sqrt(count)
        assert abs(float(z.mean())) <= 4.0 * se, (float(z.mean()), se)
