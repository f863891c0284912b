"""Predictor tests: objective identity checks, nested-search certificates
against brute-force grids, and the exact perfect-knowledge reduction."""

import math

import numpy as np
import pytest

from lasso_mismatch import predictor
from lasso_mismatch.kernels import q_function
from lasso_mismatch.predictor import (
    INNER_MAX_ITERS,
    INNER_REL_TOL,
    OUTER_MAX_ITERS,
    OUTER_REL_TOL,
    ModelConfig,
    NonConvergenceError,
    golden_section_min,
    maximize_over_beta,
    objective_D,
    optimal_lambda,
    predict_mse,
    predict_report,
    predict_support,
    solve_scalar,
)
from lasso_mismatch.prior import Prior, prior_expect_e, sparse_bernoulli
from oracles import oracle_expect_e, oracle_expect_eta

# frozen independent evaluation of the objective at tau=1, beta=1
# (delta=0.8, kappa=0.1, eps2=0.1, sigma_z2=0.2, lam=1; quadrature expectations)
D_REFERENCE_POINT = 0.2914360311752436

REF_CFG = ModelConfig(delta=0.8, kappa=0.1, eps2=0.1, sigma_z2=0.2, lam=1.201)
REF_PRIOR = sparse_bernoulli(0.1)


class TestModelConfig:
    def test_derived_quantities(self):
        cfg = REF_CFG
        assert cfg.gamma ** 2 + cfg.eps2 == pytest.approx(1.0, abs=1e-15)
        assert cfg.snr == pytest.approx(0.5, abs=1e-15)

    def test_from_snr(self):
        cfg = ModelConfig.from_snr(delta=0.8, kappa=0.1, eps2=0.1, snr=0.5, lam=1.0)
        assert cfg.sigma_z2 == pytest.approx(0.2, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(delta=0.0, kappa=0.1, eps2=0.1, sigma_z2=0.2, lam=1.0)
        with pytest.raises(ValueError):
            ModelConfig(delta=0.8, kappa=1.0, eps2=0.1, sigma_z2=0.2, lam=1.0)
        with pytest.raises(ValueError):
            ModelConfig(delta=0.8, kappa=0.1, eps2=1.0, sigma_z2=0.2, lam=1.0)
        with pytest.raises(ValueError):
            ModelConfig(delta=0.8, kappa=0.1, eps2=0.1, sigma_z2=0.0, lam=1.0)
        with pytest.raises(ValueError):
            ModelConfig(delta=0.8, kappa=0.1, eps2=0.1, sigma_z2=0.2, lam=0.0)


class TestObjective:
    def test_matches_quadrature_substitution(self):
        cfg = REF_CFG
        p = REF_PRIOR
        tau, beta = 0.7, 0.9
        chi = 2.0 * cfg.lam * tau / beta
        expect_oracle = sum(
            w * oracle_expect_e(cfg.gamma * v, tau, chi) for v, w in p.atoms
        )
        direct = objective_D(tau, beta, cfg, p)
        via_oracle = (
            0.5 * beta * tau * (cfg.delta - 1.0)
            + 0.5 * beta * cfg.sigma_z2 / tau
            - 0.25 * beta * beta
            + 0.5 * beta * cfg.eps2 * p.second_moment() / tau
            + (beta / tau) * expect_oracle
        )
        assert direct == pytest.approx(via_oracle, abs=1e-9)

    def test_reference_point(self):
        cfg = ModelConfig(delta=0.8, kappa=0.1, eps2=0.1, sigma_z2=0.2, lam=1.0)
        assert objective_D(1.0, 1.0, cfg, REF_PRIOR) == pytest.approx(
            D_REFERENCE_POINT, abs=1e-9
        )

    def test_mismatch_term_vanishes_without_uncertainty(self):
        # with eps2 = 0 the objective equals the perfect-knowledge form, bitwise
        cfg = ModelConfig(delta=0.8, kappa=0.1, eps2=0.0, sigma_z2=0.2, lam=1.0)
        p = REF_PRIOR
        for tau, beta in ((0.5, 0.8), (1.0, 1.0), (2.0, 0.3)):
            chi = 2.0 * cfg.lam * tau / beta
            reduced = (
                0.5 * beta * tau * (cfg.delta - 1.0)
                + 0.5 * beta * cfg.sigma_z2 / tau
                - 0.25 * beta * beta
                + (beta / tau) * prior_expect_e(p, 1.0, tau, chi)
            )
            assert objective_D(tau, beta, cfg, p) == reduced

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            objective_D(0.0, 1.0, REF_CFG, REF_PRIOR)
        with pytest.raises(ValueError):
            objective_D(1.0, -1.0, REF_CFG, REF_PRIOR)


class TestMaximizeOverBeta:
    def test_local_max_certificate(self):
        tau = 0.6
        beta, value, _ = maximize_over_beta(tau, REF_CFG, REF_PRIOR)
        for probe in (beta * (1 - 1e-4), beta * (1 + 1e-4)):
            assert value >= objective_D(tau, probe, REF_CFG, REF_PRIOR) - 1e-12

    def test_grid_oracle_brackets_argmax(self):
        tau = 0.6
        beta, _, _ = maximize_over_beta(tau, REF_CFG, REF_PRIOR)
        grid = np.linspace(1e-6, 5.0, 10_000)
        vals = np.array([objective_D(tau, b, REF_CFG, REF_PRIOR) for b in grid])
        b_grid = grid[int(np.argmax(vals))]
        spacing = grid[1] - grid[0]
        assert abs(b_grid - beta) <= spacing

    def test_cap_exhaustion_raises(self):
        # a vanishing tau sends the maximizer beyond any bracket the cap allows
        with pytest.raises(NonConvergenceError):
            maximize_over_beta(1e-9, REF_CFG, REF_PRIOR)


class TestSolveScalar:
    def test_solution_metadata(self):
        sol = solve_scalar(REF_CFG, REF_PRIOR)
        assert sol.converged
        assert sol.tau_star > 0 and sol.beta_star > 0
        assert sol.outer_iters <= OUTER_MAX_ITERS
        assert sol.inner_iters_total > 0

    @pytest.mark.parametrize(
        "cfg",
        [
            REF_CFG,
            ModelConfig(delta=0.8, kappa=0.1, eps2=0.2, sigma_z2=0.2, lam=0.61),
            ModelConfig(delta=1.2, kappa=0.1, eps2=0.2, sigma_z2=0.2, lam=1.01),
        ],
    )
    def test_grid_saddle_brackets_solution(self, cfg):
        # independent re-evaluation of the objective on a 200x200 grid; the
        # grid minimizer of the inner maxima must bracket the returned tau*
        p = REF_PRIOR
        sol = solve_scalar(cfg, p)
        taus = np.linspace(0.3, 1.5, 200)
        betas = np.linspace(0.05, 3.0, 200)
        g = np.array(
            [max(objective_D(t, b, cfg, p) for b in betas) for t in taus]
        )
        t_grid = taus[int(np.argmin(g))]
        assert abs(t_grid - sol.tau_star) <= taus[1] - taus[0]

    def test_saddle_certificate(self):
        for cfg in (
            REF_CFG,
            ModelConfig(delta=0.8, kappa=0.1, eps2=0.2, sigma_z2=0.2, lam=0.61),
            ModelConfig(delta=1.2, kappa=0.1, eps2=0.2, sigma_z2=0.2, lam=0.01),
        ):
            sol = solve_scalar(cfg, REF_PRIOR)
            d_star = objective_D(sol.tau_star, sol.beta_star, cfg, REF_PRIOR)
            for b in (sol.beta_star * (1 - 1e-3), sol.beta_star * (1 + 1e-3)):
                assert objective_D(sol.tau_star, b, cfg, REF_PRIOR) <= d_star + 1e-8
            for t in (sol.tau_star * (1 - 1e-3), sol.tau_star * (1 + 1e-3)):
                _, val, _ = maximize_over_beta(t, cfg, REF_PRIOR)
                assert d_star <= val + 1e-8


class TestPredictions:
    def test_mse_nonnegative_on_reference_configs(self):
        for lam in (0.101, 0.601, 1.201, 3.001):
            cfg = REF_CFG.with_lam(lam)
            sol = solve_scalar(cfg, REF_PRIOR)
            assert predict_mse(sol, cfg, REF_PRIOR) >= -1e-9

    def test_perfect_knowledge_correction_is_zero(self):
        cfg = ModelConfig(delta=0.8, kappa=0.1, eps2=0.0, sigma_z2=0.2, lam=1.0)
        sol = solve_scalar(cfg, REF_PRIOR)
        mse = predict_mse(sol, cfg, REF_PRIOR)
        assert mse == cfg.delta * sol.tau_star ** 2 - cfg.sigma_z2

    def test_perfect_knowledge_reduction_exact(self):
        # an independently assembled perfect-knowledge pipeline, built from the
        # same search primitive and the reduced objective, must agree bitwise
        cfg = ModelConfig(delta=0.8, kappa=0.1, eps2=0.0, sigma_z2=0.2, lam=1.0)
        p = REF_PRIOR

        def reduced_D(tau, beta):
            chi = 2.0 * cfg.lam * tau / beta
            return (
                0.5 * beta * tau * (cfg.delta - 1.0)
                + 0.5 * beta * cfg.sigma_z2 / tau
                - 0.25 * beta * beta
                + (beta / tau) * prior_expect_e(p, 1.0, tau, chi)
            )

        def reduced_max_beta(tau):
            lo, hi = 1e-6, 10.0
            f_hi = -reduced_D(tau, hi)
            while True:
                f_next = -reduced_D(tau, 2.0 * hi)
                if f_next >= f_hi:
                    hi *= 2.0
                    break
                hi *= 2.0
                f_hi = f_next
            b, neg, _, _ = golden_section_min(
                lambda b: -reduced_D(tau, b), lo, hi, INNER_REL_TOL, INNER_MAX_ITERS
            )
            return b, -neg

        lo = max(1e-6, 0.5 * math.sqrt(cfg.sigma_z2 / cfg.delta))
        hi = 10.0
        g_hi = reduced_max_beta(hi)[1]
        while True:
            g_next = reduced_max_beta(2.0 * hi)[1]
            if g_next >= g_hi:
                hi *= 2.0
                break
            hi *= 2.0
            g_hi = g_next
        tau_ref, _, _, _ = golden_section_min(
            lambda t: reduced_max_beta(t)[1], lo, hi, OUTER_REL_TOL, OUTER_MAX_ITERS
        )
        beta_ref, _ = reduced_max_beta(tau_ref)

        sol = solve_scalar(cfg, p)
        assert sol.tau_star == tau_ref
        assert sol.beta_star == beta_ref
        assert predict_mse(sol, cfg, p) == cfg.delta * tau_ref ** 2 - cfg.sigma_z2

    def test_phi_off_matches_monte_carlo(self):
        cfg = ModelConfig(delta=0.8, kappa=0.1, eps2=0.2, sigma_z2=0.2, lam=0.61)
        sol = solve_scalar(cfg, REF_PRIOR)
        xi = 1e-3
        _, phi_off = predict_support(sol, cfg, REF_PRIOR, xi)
        rng = np.random.default_rng(5)
        h = rng.normal(0.0, 1.0, 1_000_000)
        chi = 2.0 * cfg.lam * sol.tau_star / sol.beta_star
        a = sol.tau_star * h
        eta = np.sign(a) * np.maximum(np.abs(a) - chi, 0.0)
        frac = np.mean(np.abs(eta) <= xi)
        se = math.sqrt(frac * (1 - frac) / h.size)
        assert abs(phi_off - frac) <= 4 * se

    def test_phi_on_general_prior_matches_monte_carlo(self):
        cfg = ModelConfig(delta=0.9, kappa=0.2, eps2=0.1, sigma_z2=0.15, lam=0.4)
        p = Prior(atoms=((-1.5, 0.08), (0.0, 0.8), (0.5, 0.12)))
        sol = solve_scalar(cfg, p)
        xi = 0.05
        phi_on, _ = predict_support(sol, cfg, p, xi)
        rng = np.random.default_rng(6)
        n_mc = 400_000
        chi = 2.0 * cfg.lam * sol.tau_star / sol.beta_star
        values = np.array([v for v, _ in p.nonzero_atoms()])
        weights = np.array([w for _, w in p.nonzero_atoms()])
        x0 = values[rng.choice(len(values), size=n_mc, p=weights)]
        a = cfg.gamma * x0 + sol.tau_star * rng.normal(0.0, 1.0, n_mc)
        eta = np.sign(a) * np.maximum(np.abs(a) - chi, 0.0)
        frac = np.mean(np.abs(eta) >= xi)
        se = math.sqrt(frac * (1 - frac) / n_mc)
        assert abs(phi_on - frac) <= 4 * se

    def test_support_domain_errors(self):
        sol = solve_scalar(REF_CFG, REF_PRIOR)
        with pytest.raises(ValueError):
            predict_support(sol, REF_CFG, REF_PRIOR, 0.0)

    def test_large_lambda_collapse(self):
        cfg = REF_CFG.with_lam(50.0)
        sol = solve_scalar(cfg, REF_PRIOR)
        mse = predict_mse(sol, cfg, REF_PRIOR)
        assert abs(mse - cfg.kappa) <= 1e-3

    def test_report_bundles_fields(self):
        rep = predict_report(REF_CFG, REF_PRIOR, 1e-3)
        assert 0.0 <= rep.phi_on <= 1.0
        assert 0.0 <= rep.phi_off <= 1.0
        assert rep.solution.converged
        assert rep.xi == 1e-3


class TestOptimalLambda:
    def test_minimizer_property(self):
        lam_opt, mse_opt = optimal_lambda(REF_CFG, REF_PRIOR, (0.5, 3.0))
        for edge in (0.5, 3.0):
            cfg = REF_CFG.with_lam(edge)
            assert mse_opt <= predict_mse(solve_scalar(cfg, REF_PRIOR), cfg, REF_PRIOR) + 1e-12

    def test_fine_grid_oracle(self):
        # scan a 1e-3 grid around the returned minimizer
        lam_opt, _ = optimal_lambda(REF_CFG, REF_PRIOR, (0.5, 1.0))
        grid = np.arange(0.5, 1.0, 1e-3)
        vals = []
        for lam in grid:
            cfg = REF_CFG.with_lam(float(lam))
            vals.append(predict_mse(solve_scalar(cfg, REF_PRIOR), cfg, REF_PRIOR))
        lam_grid = float(grid[int(np.argmin(vals))])
        assert abs(lam_grid - lam_opt) <= 2e-3

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            optimal_lambda(REF_CFG, REF_PRIOR, (1.0, 0.5))

    def test_iteration_cap_raises(self, monkeypatch):
        # a quadratic stand-in for the predicted MSE isolates the lambda search
        # from the saddle solves, which have the same iteration cap
        monkeypatch.setattr(predictor, "solve_scalar", lambda cfg, p: cfg)
        monkeypatch.setattr(predictor, "predict_mse", lambda cfg, c, p: (c.lam - 0.7) ** 2)
        lam_opt, _ = optimal_lambda(REF_CFG, REF_PRIOR, (0.5, 1.0))
        assert abs(lam_opt - 0.7) <= 1e-4
        monkeypatch.setattr(predictor, "OUTER_MAX_ITERS", 3)
        with pytest.raises(NonConvergenceError, match="lambda search"):
            optimal_lambda(REF_CFG, REF_PRIOR, (0.5, 1.0))
