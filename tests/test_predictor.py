"""Predictor tests: objective identity checks, the closed-form gradient and the
root slopes against central differences, saddle certificates against brute-force grids and the
nested golden-section oracle, the exact perfect-knowledge reduction, and the saddle as the
state-evolution fixed point of the matched LASSO."""

import ast
import math
import random
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lasso_mismatch import predictor
from lasso_mismatch.kernels import q_function
from lasso_mismatch.predictor import (
    BRACKET_CAP,
    ROOT_MAX_EVALS,
    ROOT_REL_TOL,
    SADDLE_TOL,
    ModelConfig,
    NonConvergenceError,
    bracketed_root,
    maximize_over_beta,
    objective_D,
    optimal_lambda,
    predict_mse,
    predict_report,
    predict_support,
    solve_scalar,
)
from lasso_mismatch.prior import Prior, _prior_moments, prior_expect_e, sparse_bernoulli
from oracles import derivative_root, golden_saddle, oracle_expect_e, state_evolution

# frozen independent evaluation of the objective at tau=1, beta=1
# (delta=0.8, kappa=0.1, eps2=0.1, sigma_z2=0.2, lam=1; quadrature expectations)
D_REFERENCE_POINT = 0.2914360311752436

REF_CFG = ModelConfig(delta=0.8, kappa=0.1, eps2=0.1, sigma_z2=0.2, lam=1.201)
REF_PRIOR = sparse_bernoulli(0.1)

# the fig-1, fig-2 and heavy (delta = 2, eps^2 = 0.5) grids, and a 3-atom prior
# with a negative atom
FIG1_CFG = ModelConfig.from_snr(delta=0.8, kappa=0.1, eps2=0.1, snr=0.5, lam=1.0)
FIG2_CFG = ModelConfig.from_snr(delta=0.8, kappa=0.1, eps2=0.2, snr=0.5, lam=1.0)
HEAVY_CFG = ModelConfig.from_snr(delta=2.0, kappa=0.1, eps2=0.5, snr=0.5, lam=1.0)
GRID = tuple(round(0.001 + 0.1 * i, 3) for i in range(60))
ATOMS_CFG = ModelConfig(delta=0.9, kappa=0.2, eps2=0.1, sigma_z2=0.15, lam=0.4)
ATOMS_PRIOR = Prior(atoms=((-1.5, 0.08), (0.0, 0.8), (0.5, 0.12)))


def test_theory_modules_import_only_the_standard_library():
    # the theory is float arithmetic: numpy is the simulator's alone
    for name in ("kernels", "prior", "predictor"):
        source = Path(predictor.__file__).with_name(f"{name}.py").read_text()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Import):
                roots = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                roots = {node.module.split(".")[0]}
            else:
                continue
            outside = roots - set(sys.stdlib_module_names) - {"lasso_mismatch"}
            assert not outside, (name, node.lineno, outside)


class TestModelConfig:
    def test_derived_quantities(self):
        cfg = REF_CFG
        assert cfg.gamma ** 2 + cfg.eps2 == pytest.approx(1.0, abs=1e-15)
        assert cfg.snr == pytest.approx(0.5, abs=1e-15)

    def test_from_snr(self):
        cfg = ModelConfig.from_snr(delta=0.8, kappa=0.1, eps2=0.1, snr=0.5, lam=1.0)
        assert cfg.sigma_z2 == pytest.approx(0.2, abs=1e-15)
        # kappa / snr overflows at snr = 1e-320 and vanishes at snr = inf;
        # either way the error names snr, not sigma_z2
        for snr in (0.0, -0.5, math.inf, math.nan, 1e-320):
            with pytest.raises(ValueError, match="snr"):
                ModelConfig.from_snr(delta=0.8, kappa=0.1, eps2=0.1, snr=snr, lam=1.0)
        # a bad kappa is reported by kappa's own rule, not as a bad kappa / snr
        for kappa in (-0.1, 0.0, 1.5, math.inf, math.nan):
            with pytest.raises(ValueError, match=r"^kappa must be in"):
                ModelConfig.from_snr(delta=0.8, kappa=kappa, eps2=0.1, snr=0.5, lam=1.0)

    @pytest.mark.parametrize("field, bad", [
        *[(field, bad) for field in ("delta", "sigma_z2", "lam")
          for bad in (0.0, -1.0, math.inf, math.nan)],
        *[("kappa", bad) for bad in (0.0, 1.0, math.inf, math.nan)],
        *[("eps2", bad) for bad in (-0.1, 1.0, math.inf, math.nan)],
    ])
    def test_validation(self, field, bad):
        # every field but the bad one is valid, so the message names it
        good = dict(delta=0.8, kappa=0.1, eps2=0.1, sigma_z2=0.2, lam=1.0)
        with pytest.raises(ValueError, match=rf"^{field} must"):
            ModelConfig(**{**good, field: bad})


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
        for bad in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="tau"):
                objective_D(bad, 1.0, REF_CFG, REF_PRIOR)
        for bad in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="beta"):
                objective_D(1.0, bad, REF_CFG, REF_PRIOR)


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

    def test_vanishing_tau_certified(self):
        # the analytic bracket holds the maximizer at any tau, so a vanishing
        # tau (beta = 2.1e8 at tau = 1e-9) needs no bracket expansion
        for tau in (1e-9, 1e-100):
            beta, value, _ = maximize_over_beta(tau, REF_CFG, REF_PRIOR)
            _, g_beta, _, _ = predictor._derivatives(tau, beta, REF_CFG, REF_PRIOR)
            assert abs(beta * g_beta) <= SADDLE_TOL * value, tau
            for probe in (beta * (1 - 1e-4), beta * (1 + 1e-4)):
                assert value >= objective_D(tau, probe, REF_CFG, REF_PRIOR), tau


def _cube(x):
    """x^3 - 2 and its slope; the root 2^(1/3) lies above 1."""
    return x ** 3 - 2.0, 3.0 * x * x


def _linear(root):
    return lambda x: (x - root, 1.0)


class TestBracketedRoot:
    def test_finds_root_and_counts_evaluations(self):
        calls = []

        def f(x):
            calls.append(x)
            return _cube(x)

        root, evals = bracketed_root(f, 0.5, 1.0, "tau")
        assert abs(root - 2.0 ** (1.0 / 3.0)) <= 1e-12
        assert evals == len(calls) and root == calls[-1]

    def test_root_at_bracket_end_closes_quickly(self):
        # the root is within rounding of 1, where the first Newton step lands
        # with f = -1e-17; the next Newton point rounds onto that bracket end,
        # and the step stop ends the search at once, where a midpoint
        # fallback would bisect about 40 times
        root, evals = bracketed_root(lambda x: (x - 1.0 - 1e-17, 1.0), 0.5, 2.0, "tau")
        assert abs(root - 1.0) <= 1e-12
        assert evals <= 6

    def test_start_at_the_root_takes_one_evaluation(self):
        root = 2.0 ** (1.0 / 3.0)
        assert bracketed_root(_cube, 0.5, 2.0, "tau", start=root) == (root, 1)
        # a start outside the open bracket is ignored
        cold = bracketed_root(_cube, 0.5, 2.0, "tau")
        assert bracketed_root(_cube, 0.5, 2.0, "tau", start=2.0) == cold

    def test_failures_raise(self, monkeypatch):
        with pytest.raises(NonConvergenceError, match="not above"):
            bracketed_root(_linear(0.1), 0.5, 1.0, "tau")
        # from a start above the root, the Newton point falls below lo, so lo
        # is evaluated and fails the same test
        with pytest.raises(NonConvergenceError, match="not above"):
            bracketed_root(_linear(0.1), 0.5, 1.0, "tau", start=0.7)
        with pytest.raises(NonConvergenceError, match="cap") as err:
            bracketed_root(_linear(2.0 * BRACKET_CAP), 0.5, 1.0, "beta", tau=3.0)
        assert err.value.tau == 3.0 and err.value.beta > BRACKET_CAP
        with pytest.raises(NonConvergenceError, match="NaN"):
            bracketed_root(lambda x: (math.nan, 1.0) if 0.5 < x < 1.0 else (x - 0.7, 1.0),
                           0.5, 1.0, "tau")
        monkeypatch.setattr(predictor, "ROOT_MAX_EVALS", 5)
        with pytest.raises(NonConvergenceError, match="within 5 evaluations"):
            bracketed_root(_cube, 0.5, 1.0, "tau")


def _central_gradient(tau, beta, cfg, p, h=1e-5):
    """(dD/dtau, dD/dbeta) by central differences of objective_D at relative step h."""
    dt, db = h * tau, h * beta
    return (
        (objective_D(tau + dt, beta, cfg, p) - objective_D(tau - dt, beta, cfg, p)) / (2 * dt),
        (objective_D(tau, beta + db, cfg, p) - objective_D(tau, beta - db, cfg, p)) / (2 * db),
    )


class TestGradient:
    @pytest.mark.parametrize(
        "cfg,p",
        [(FIG1_CFG, REF_PRIOR), (HEAVY_CFG, REF_PRIOR), (ATOMS_CFG, ATOMS_PRIOR)],
        ids=["fig1", "heavy", "three_atoms"],
    )
    @pytest.mark.parametrize("lam", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0])
    def test_matches_central_differences(self, cfg, p, lam):
        cfg = cfg.with_lam(lam)
        for tau, beta in ((0.3, 0.05), (0.6, 0.9), (1.2, 2.5)):
            grad = predictor._derivatives(tau, beta, cfg, p)[:2]
            for got, want in zip(grad, _central_gradient(tau, beta, cfg, p)):
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (tau, beta)


class TestSlopes:
    @pytest.mark.parametrize(
        "cfg,p",
        [(FIG1_CFG, REF_PRIOR), (HEAVY_CFG, REF_PRIOR), (ATOMS_CFG, ATOMS_PRIOR)],
        ids=["fig1", "heavy", "three_atoms"],
    )
    @pytest.mark.parametrize("lam", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0])
    def test_beta_slope_matches_central_differences(self, cfg, p, lam):
        # the slope of the beta root's function -dD/dbeta in beta
        cfg = cfg.with_lam(lam)
        for tau, beta in ((0.3, 0.05), (0.6, 0.9), (1.2, 2.5)):
            db = 1e-5 * beta
            want = (predictor._derivatives(tau, beta - db, cfg, p)[1]
                    - predictor._derivatives(tau, beta + db, cfg, p)[1]) / (2 * db)
            got = predictor._derivatives(tau, beta, cfg, p)[2]
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), (tau, beta)

    @pytest.mark.parametrize(
        "cfg,p",
        [(FIG1_CFG, REF_PRIOR), (HEAVY_CFG, REF_PRIOR), (ATOMS_CFG, ATOMS_PRIOR)],
        ids=["fig1", "heavy", "three_atoms"],
    )
    @pytest.mark.parametrize("lam", [1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0])
    def test_tau_slope_matches_central_differences(self, cfg, p, lam):
        # the total slope of tau -> dD/dtau(tau, beta(tau)), beta(tau) the beta root
        cfg = cfg.with_lam(lam)
        for tau in (0.3, 0.6, 1.2):
            dt = 1e-5 * tau
            want = (predictor._beta_root(tau + dt, cfg, p)[1][0]
                    - predictor._beta_root(tau - dt, cfg, p)[1][0]) / (2 * dt)
            got = predictor._beta_root(tau, cfg, p)[1][3]
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want)), tau


class TestSolveScalar:
    def test_solution_metadata(self):
        sol = solve_scalar(REF_CFG, REF_PRIOR)
        assert sol.tau_star > 0 and sol.beta_star > 0
        # root-step counts: each tau evaluation runs one beta root, which
        # evaluates the gradient at least once (once when its warm start is
        # within the stopping step of the root)
        assert 3 <= sol.outer_iters <= ROOT_MAX_EVALS
        assert sol.outer_iters <= sol.inner_iters_total <= ROOT_MAX_EVALS * sol.outer_iters
        assert sol.objective == objective_D(sol.tau_star, sol.beta_star, REF_CFG, REF_PRIOR)
        g_tau, g_beta, _, _ = predictor._derivatives(sol.tau_star, sol.beta_star, REF_CFG,
                                                      REF_PRIOR)
        assert sol.residual == (abs(sol.tau_star * g_tau), abs(sol.beta_star * g_beta))
        assert max(sol.residual) <= SADDLE_TOL * sol.objective

    def test_gradient_evaluated_once_per_beta_search_step(self, monkeypatch):
        # the residual is read from the tau search's last evaluation, which is
        # at (tau*, beta*), so the saddle costs no extra gradient evaluation
        calls = []
        derivatives = predictor._derivatives

        def spy(*args):
            calls.append(args[:2])
            return derivatives(*args)

        monkeypatch.setattr(predictor, "_derivatives", spy)
        sol = solve_scalar(REF_CFG, REF_PRIOR)
        assert len(calls) == sol.inner_iters_total
        assert calls[-1] == (sol.tau_star, sol.beta_star)

    def test_newton_evaluation_count(self):
        # median gradient evaluations per solve on the grid, outer and inner
        # (6.5 on fig-1 and 12.5 on heavy)
        for cfg, bound in [(FIG1_CFG, 10), (HEAVY_CFG, 15)]:
            counts = []
            for lam in GRID:
                sol = solve_scalar(cfg.with_lam(lam), REF_PRIOR)
                counts.append(sol.outer_iters + sol.inner_iters_total)
            assert np.median(counts) <= bound, (cfg, counts)

    @pytest.mark.parametrize(
        "cfg,p",
        [(FIG1_CFG, REF_PRIOR), (HEAVY_CFG, REF_PRIOR), (ATOMS_CFG, ATOMS_PRIOR)],
        ids=["fig1", "heavy", "three_atoms"],
    )
    def test_large_lambda_tau_is_its_start(self, cfg, p):
        # as lambda -> inf the estimate is zero, so delta tau*^2 = sigma_z^2 + E[X^2]:
        # the tau search's start is the root, found by its one evaluation
        sol = solve_scalar(cfg.with_lam(1e4), p)
        tau0 = math.sqrt((cfg.sigma_z2 + p.second_moment()) / cfg.delta)
        assert sol.outer_iters == 1
        assert abs(sol.tau_star - tau0) <= 1e-12 * tau0

    def test_large_delta_certified(self):
        # tau* falls as delta^-1/2 (1e-9 at delta = 1e16) and beta* grows as
        # delta^1/2: the tau bracket has no absolute floor and the beta search
        # no absolute cap, so every solve is certified, and the MSE holds its
        # delta -> inf limit
        mses = []
        for delta in (1e10, 1e11, 1e12, 1e14, 1e16):
            cfg = ModelConfig(delta=delta, kappa=0.1, eps2=0.1, sigma_z2=1e-6, lam=1.0)
            sol = solve_scalar(cfg, REF_PRIOR)
            mses.append(predict_mse(sol, cfg, REF_PRIOR))
        assert max(mses) - min(mses) <= 1e-8 * mses[0], mses

    def test_overflowing_delta_names_delta(self, monkeypatch):
        # at delta = 1e200 the tau slope, about delta^2, is inf, so the search
        # stops at its start and the certificate fails; the message says why
        cfg = ModelConfig(delta=1e200, kappa=0.1, eps2=0.1, sigma_z2=1e-6, lam=1.0)
        with pytest.raises(NonConvergenceError, match=r"at delta=1e\+200; .*overflowed"):
            solve_scalar(cfg, REF_PRIOR)
        # a residual miss with every term finite names delta and no overflow
        monkeypatch.setattr(predictor, "SADDLE_TOL", 1e-30)
        with pytest.raises(NonConvergenceError, match=r"at delta=0\.8$"):
            solve_scalar(REF_CFG, REF_PRIOR)

    def test_residual_out_of_tolerance_raises(self, monkeypatch):
        monkeypatch.setattr(predictor, "SADDLE_TOL", 1e-30)
        with pytest.raises(NonConvergenceError, match="saddle residual"):
            solve_scalar(REF_CFG, REF_PRIOR)

    @pytest.mark.parametrize(
        "cfg,p",
        [(FIG1_CFG, REF_PRIOR), (HEAVY_CFG, REF_PRIOR)],
        ids=["fig1", "heavy"],
    )
    def test_calibration_identity(self, cfg, p):
        # eliminating beta from the two stationarity conditions gives
        # beta* = 2 tau* (delta - P(|a| > chi*))
        for lam in GRID:
            c = cfg.with_lam(lam)
            sol = solve_scalar(c, p)
            chi = 2.0 * lam * sol.tau_star / sol.beta_star
            inside = _prior_moments(p, c.gamma, sol.tau_star, chi)[2]
            identity = 2.0 * sol.tau_star * (c.delta - (1.0 - inside))
            assert abs(sol.beta_star - identity) <= 1e-9 * sol.beta_star, lam

    def test_certified_across_parameter_ranges(self):
        # delta in [0.05, 10], eps^2 up to 0.999, sigma_z^2 in [1e-6, 100] and
        # lambda in [1e-6, 1e5] (all log-uniform but eps^2), sparse Bernoulli and
        # multi-atom priors: every solve is certified, within the evaluation
        # counts the lambda -> inf start gives (median 18, max 153 per solve).
        # At lambda = 1e4 the estimate is zero: the MSE is E[X^2] and no entry
        # is detected.
        rng = random.Random(3)
        counts = []
        for _ in range(2000):
            if rng.random() < 0.5:
                p = sparse_bernoulli(rng.uniform(0.01, 0.9))
            else:
                values = sorted({round(rng.uniform(-3.0, 3.0), 3) for _ in range(3)} | {0.0})
                weights = [rng.uniform(0.05, 1.0) for _ in values]
                probs = [w / sum(weights) for w in weights[:-1]]
                p = Prior(atoms=tuple(zip(values, probs + [1.0 - sum(probs)])))
            cfg = ModelConfig(
                delta=math.exp(rng.uniform(math.log(0.05), math.log(10.0))),
                kappa=1.0 - dict(p.atoms).get(0.0, 0.0),
                eps2=rng.uniform(0.0, 0.999),
                sigma_z2=math.exp(rng.uniform(math.log(1e-6), math.log(100.0))),
                lam=math.exp(rng.uniform(math.log(1e-6), math.log(1e5))),
            )
            sol = solve_scalar(cfg, p)
            assert max(sol.residual) <= SADDLE_TOL * sol.objective, cfg
            counts.append(sol.outer_iters + sol.inner_iters_total)
            large = cfg.with_lam(1e4)
            sol = solve_scalar(large, p)
            ex2 = p.second_moment()
            assert abs(predict_mse(sol, large, p) - ex2) <= 1e-8 * ex2, large
            assert predict_support(sol, large, p, 1e-3)[0] <= 1e-12, large
        assert np.median(counts) <= 18 and max(counts) <= 153, (np.median(counts), max(counts))
        # small lambda at delta > 1: at tau = 0.00386 the beta root lies on its
        # analytic lower bound 166.22 within rounding
        cfg = ModelConfig(delta=3.692916709345302, kappa=0.6612400753578219,
                          eps2=0.9687183932620014, sigma_z2=0.00021954784761925747,
                          lam=0.00010524391941916067)
        p = sparse_bernoulli(cfg.kappa)
        tau = 0.5 * math.sqrt(cfg.sigma_z2 / cfg.delta)
        bound = tau * (cfg.delta - 1.0) + (cfg.sigma_z2 + cfg.eps2 * p.second_moment()) / tau
        beta, _, _ = maximize_over_beta(tau, cfg, p)
        assert abs(beta - bound) <= 1e-12 * bound
        solve_scalar(cfg, p)

    @pytest.mark.parametrize("delta", [0.05, 0.1, 0.5, 0.8, 0.99])
    @pytest.mark.parametrize("lam", [1e-10, 1e-11, 1e-12])
    def test_certified_at_small_lambda_below_delta_one(self, lam, delta):
        # at delta < 1, beta* tends to a multiple of lam as lam -> 0 (7.69 lam
        # on the reference configuration), so the beta search's floor has to
        # scale with lam too: it is at most lam sqrt(8 delta / 3) / 2 here
        for cfg, p in ((REF_CFG, REF_PRIOR), (ATOMS_CFG, ATOMS_PRIOR)):
            cfg = replace(cfg, delta=delta, lam=lam)
            sol = solve_scalar(cfg, p)
            assert max(sol.residual) <= SADDLE_TOL * sol.objective, cfg
            assert sol.beta_star >= lam * math.sqrt(8.0 * delta / 3.0), cfg

    def test_bouncing_beta_search_bisects(self):
        # at tau = 1.2724 the beta root's Newton points alternate between
        # 0.0455 and 0.2541, one on each side of the root, without closing in;
        # the search bisects instead
        cfg = ModelConfig(delta=0.10047581288203111, kappa=0.16266991209735537,
                          eps2=0.3432187709147611, sigma_z2=1.0292942236563901e-06,
                          lam=0.10680676051654898)
        p = sparse_bernoulli(cfg.kappa)
        beta, _, evals = maximize_over_beta(1.2724016562887044, cfg, p)
        assert evals <= 20 and 0.0455 < beta < 0.2541
        sol = solve_scalar(cfg, p)
        assert max(sol.residual) <= SADDLE_TOL * sol.objective

    @pytest.mark.parametrize(
        "cfg,p",
        [
            (FIG1_CFG.with_lam(0.101), REF_PRIOR),
            (FIG1_CFG.with_lam(1.201), REF_PRIOR),
            (HEAVY_CFG.with_lam(0.401), REF_PRIOR),
            (ATOMS_CFG, ATOMS_PRIOR),
        ],
        ids=["fig1-0.101", "fig1-1.201", "heavy-0.401", "three_atoms"],
    )
    def test_matches_golden_section_oracle(self, cfg, p):
        tau_lo = 0.5 * math.sqrt(cfg.sigma_z2 / cfg.delta)
        tau, beta = golden_saddle(lambda t, b: objective_D(t, b, cfg, p), tau_lo)
        sol = solve_scalar(cfg, p)
        assert abs(sol.tau_star - tau) <= 1e-6 * tau
        assert abs(sol.beta_star - beta) <= 1e-6 * beta

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
        # same root primitive and the reduced gradient and slopes, must agree
        # bitwise
        cfg = ModelConfig(delta=0.8, kappa=0.1, eps2=0.0, sigma_z2=0.2, lam=1.0)
        p = REF_PRIOR

        def reduced_derivatives(tau, beta):
            # gamma = 1 and eps = 0, so s^2 = sigma_z^2
            chi = 2.0 * cfg.lam * tau / beta
            e, abs_eta, inside, inside_chi, inside_tau = _prior_moments(p, 1.0, tau, chi)
            w = (0.5 * cfg.sigma_z2 + e - chi * abs_eta) / tau
            half = 0.5 * (cfg.delta - 1.0)
            clipped = chi * chi * (1.0 - inside) / tau
            slope_beta = 0.5 + clipped / beta
            w_tau = (tau * (inside - chi * inside_chi) + clipped - w) / tau
            h_tb = half + w_tau
            h_tt = beta * (inside_tau + inside_chi * chi / tau - (w_tau - w / tau) / tau)
            return (beta * (half + inside - w / tau), tau * half + w - 0.5 * beta,
                    slope_beta, h_tt + h_tb * h_tb / slope_beta)

        last = {"beta": math.nan}

        def reduced_beta_root(tau):
            def f(beta):
                last["d_tau"], d_beta, slope_beta, last["slope"] = reduced_derivatives(tau, beta)
                return -d_beta, slope_beta

            hi = tau * cfg.delta + (cfg.sigma_z2 + p.second_moment()) / tau
            lo = 0.5 * max(tau * (cfg.delta - 1.0) + cfg.sigma_z2 / tau,
                           min(cfg.lam * math.sqrt(8.0 * cfg.delta / 3.0),
                               0.5 * tau * cfg.delta + cfg.sigma_z2 / tau))
            last["beta"], _ = bracketed_root(f, lo, hi, "beta", start=last["beta"])
            return last["d_tau"], last["slope"]

        lo = 0.5 * math.sqrt(cfg.sigma_z2 / cfg.delta)
        tau0 = math.sqrt((cfg.sigma_z2 + p.second_moment()) / cfg.delta)
        tau_ref, _ = bracketed_root(reduced_beta_root, lo, max(2.0 * lo, 2.0 * tau0), "tau",
                                    start=tau0)
        beta_ref = last["beta"]

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
        for xi in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="xi"):
                predict_support(sol, REF_CFG, REF_PRIOR, xi)

    def test_large_lambda_collapse(self):
        cfg = REF_CFG.with_lam(50.0)
        sol = solve_scalar(cfg, REF_PRIOR)
        mse = predict_mse(sol, cfg, REF_PRIOR)
        assert abs(mse - cfg.kappa) <= 1e-3

    def test_report_bundles_fields(self):
        rep = predict_report(REF_CFG, REF_PRIOR, 1e-3)
        assert 0.0 <= rep.phi_on <= 1.0
        assert 0.0 <= rep.phi_off <= 1.0
        assert rep.xi == 1e-3


def _random_case(rng, log_lam_range):
    """A sparse Bernoulli or a 3-4 atom prior, and a config drawn across the range."""
    if rng.random() < 0.5:
        p = sparse_bernoulli(rng.uniform(0.01, 0.9))
    else:
        values = sorted({round(rng.uniform(-3.0, 3.0), 3) for _ in range(3)} | {0.0})
        weights = [rng.uniform(0.05, 1.0) for _ in values]
        probs = [w / sum(weights) for w in weights[:-1]]
        p = Prior(atoms=tuple(zip(values, probs + [1.0 - sum(probs)])))
    cfg = ModelConfig(
        delta=math.exp(rng.uniform(math.log(0.05), math.log(10.0))),
        kappa=1.0 - dict(p.atoms).get(0.0, 0.0),
        eps2=rng.uniform(0.0, 0.999),
        sigma_z2=math.exp(rng.uniform(math.log(1e-6), math.log(100.0))),
        lam=math.exp(rng.uniform(*log_lam_range)),
    )
    return cfg, p


class TestStateEvolution:
    """The saddle against the matched LASSO's state evolution (Bayati-Montanari).

    Both tests draw delta in [0.05, 10], eps^2 in [0, 0.999), sigma_z^2 in
    [1e-6, 100] and lambda in [1e-12, 1e5] (log-uniform but eps^2), with
    sparse Bernoulli and multi-atom priors.
    """

    LOG_LAM = (math.log(1e-12), math.log(1e5))

    def test_fixed_point_by_quadrature(self):
        # SE1, SE2 and the MSE from quadrature alone; observed residuals are
        # near 3e-11 with the oracle's 1e-12 tolerance
        rng = random.Random(21)
        for _ in range(24):
            cfg, p = _random_case(rng, self.LOG_LAM)
            sol = solve_scalar(cfg, p)
            se1, se2, mse = state_evolution(cfg, p.atoms, sol.tau_star, sol.beta_star)
            assert abs(se1) <= SADDLE_TOL and abs(se2) <= SADDLE_TOL, (cfg, p, se1, se2)
            assert abs(predict_mse(sol, cfg, p) - mse) <= SADDLE_TOL * mse, (cfg, p)

    def test_matched_reduction(self):
        # (delta, eps^2, sigma_z^2, atoms v) has the saddle of (delta, 0, s^2,
        # atoms gamma v), s^2 = sigma_z^2 + eps^2 E[X^2]: D is the same function.
        # Each search stops within ROOT_REL_TOL, and tau0 rounds differently.
        rng = random.Random(22)
        for _ in range(200):
            cfg, p = _random_case(rng, self.LOG_LAM)
            matched = replace(cfg, eps2=0.0, sigma_z2=cfg.sigma_z2 + cfg.eps2 * p.second_moment())
            q = Prior(atoms=tuple((cfg.gamma * v, w) for v, w in p.atoms))
            sol, ref = solve_scalar(cfg, p), solve_scalar(matched, q)
            assert abs(sol.tau_star - ref.tau_star) <= 2 * ROOT_REL_TOL * ref.tau_star, cfg
            assert abs(sol.beta_star - ref.beta_star) <= 2 * ROOT_REL_TOL * ref.beta_star, cfg


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

    @pytest.mark.parametrize("cfg", [FIG1_CFG, FIG2_CFG], ids=["fig1", "fig2"])
    def test_matches_derivative_root_oracle(self, cfg):
        def mse(lam):
            c = cfg.with_lam(lam)
            return predict_mse(solve_scalar(c, REF_PRIOR), c, REF_PRIOR)

        lam_opt, _ = optimal_lambda(cfg, REF_PRIOR, (0.5, 3.0))
        assert abs(lam_opt - derivative_root(mse, 0.5, 3.0)) <= 1e-6

    @pytest.mark.parametrize("cfg", [FIG1_CFG, FIG2_CFG], ids=["fig1", "fig2"])
    def test_solve_count(self, cfg, monkeypatch):
        # Brent's minimiser takes 14 solves on fig-1 and 13 on fig-2
        solves = []
        real = predictor.solve_scalar

        def spy(c, p):
            solves.append(c.lam)
            return real(c, p)

        monkeypatch.setattr(predictor, "solve_scalar", spy)
        optimal_lambda(cfg, REF_PRIOR, (0.5, 3.0))
        assert len(solves) <= 15, solves

    @pytest.mark.parametrize("interval, end", [
        ((1.0, 3.0), "1"),
        ((0.05, 0.3), "0.3"),
        # the MSE is not unimodal here; the search ends at the upper end
        ((0.001, 100.0), "100"),
    ], ids=["below", "above", "not-unimodal"])
    def test_minimum_at_an_interval_end_raises(self, interval, end):
        # fig-1's minimiser 0.611 lies outside the first two intervals
        with pytest.raises(NonConvergenceError, match=rf"interval end {end}$"):
            optimal_lambda(REF_CFG, REF_PRIOR, interval)

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            optimal_lambda(REF_CFG, REF_PRIOR, (1.0, 0.5))

    def test_iteration_cap_raises(self, monkeypatch):
        # a quadratic stand-in for the predicted MSE isolates the lambda search
        # from the saddle solves
        monkeypatch.setattr(predictor, "solve_scalar", lambda cfg, p: cfg)
        monkeypatch.setattr(predictor, "predict_mse", lambda cfg, c, p: (c.lam - 0.7) ** 2)
        lam_opt, _ = optimal_lambda(REF_CFG, REF_PRIOR, (0.5, 1.0))
        assert abs(lam_opt - 0.7) <= 1e-4
        monkeypatch.setattr(predictor, "OUTER_MAX_ITERS", 3)
        with pytest.raises(NonConvergenceError, match="lambda search"):
            optimal_lambda(REF_CFG, REF_PRIOR, (0.5, 1.0))
