"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-3 pin externally fixed reference values for the theory outputs;
criteria 4-5 require the Monte Carlo means to agree with the theory
predictions at stated tolerances; criterion 6 is a battery of structural
properties.  Tolerances are fixed here, not tuned.

Run with:  pytest tests/test_acceptance.py -v -s
"""

import math
import time

import numpy as np

from lasso_mismatch.kernels import (
    gauss_expect_e,
    gauss_expect_eta,
    soft_threshold,
    soft_threshold_value,
)
from lasso_mismatch.predictor import (
    ModelConfig,
    maximize_over_beta,
    objective_D,
    optimal_lambda,
    predict_mse,
    predict_support,
    solve_scalar,
)
from lasso_mismatch.prior import prior_expect_e, sparse_bernoulli
from lasso_mismatch.simulator import generate_instance, run_grid, run_trials, solve_lasso
from oracles import oracle_expect_e, oracle_expect_eta

PRIOR = sparse_bernoulli(0.1)

MSE_CURVE_CONFIG = dict(delta=0.8, kappa=0.1, eps2=0.1, sigma_z2=0.2)
SUPPORT_CONFIG = dict(delta=0.8, kappa=0.1, eps2=0.2, sigma_z2=0.2)

# criterion 1 reference curve: lambda -> limiting MSE, tolerance 2e-3
MSE_REFERENCE = {
    0.101: 0.305411,
    0.301: 0.132608,
    0.601: 0.075332,
    1.001: 0.057142,
    1.201: 0.055662,
    2.001: 0.065882,
    3.001: 0.084234,
    4.001: 0.094771,
    5.901: 0.099714,
}

# criterion 3 reference values at xi = 1e-3, tolerance 2e-3
SUPPORT_REFERENCE = {
    0.01: (0.78271, 0.29030),
    1.01: (0.42490, 0.89465),
    2.81: (0.10414, 0.99857),
}
SUPPORT_REFERENCE_WIDE = 0.91756  # delta = 1.2, lambda = 0.01, on-support


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def test_criterion_1_theory_mse_reference_curve():
    start = time.monotonic()
    failures = []
    for lam, expected in MSE_REFERENCE.items():
        cfg = ModelConfig(lam=lam, **MSE_CURVE_CONFIG)
        sol = solve_scalar(cfg, PRIOR)
        got = predict_mse(sol, cfg, PRIOR)
        if abs(got - expected) > 2e-3:
            failures.append(f"lambda={lam}: mse={got:.6f} expected={expected:.6f}")
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 5.0
    _report(
        "criterion 1 (theory MSE curve)",
        ok,
        f"{len(MSE_REFERENCE) - len(failures)}/{len(MSE_REFERENCE)} points within 2e-3, "
        f"{elapsed:.2f}s",
    )
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    assert not failures, "; ".join(failures)


def test_criterion_2_optimal_regularization_window():
    start = time.monotonic()
    cfg = ModelConfig(lam=1.0, **MSE_CURVE_CONFIG)
    lam_opt, mse_opt = optimal_lambda(cfg, PRIOR, (0.5, 3.0))
    elapsed = time.monotonic() - start
    ok = 1.0 <= lam_opt <= 1.4 and elapsed < 10.0
    _report(
        "criterion 2 (optimal regularization)",
        ok,
        f"lambda_opt={lam_opt:.4f} mse_opt={mse_opt:.6f}, window [1.0, 1.4], {elapsed:.2f}s",
    )
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"
    assert 1.0 <= lam_opt <= 1.4, f"lambda_opt={lam_opt:.4f} outside [1.0, 1.4]"


def test_criterion_3_support_recovery_reference_values():
    start = time.monotonic()
    xi = 1e-3
    failures = []
    for lam, (on_ref, off_ref) in SUPPORT_REFERENCE.items():
        cfg = ModelConfig(lam=lam, **SUPPORT_CONFIG)
        sol = solve_scalar(cfg, PRIOR)
        phi_on, phi_off = predict_support(sol, cfg, PRIOR, xi)
        if abs(phi_on - on_ref) > 2e-3:
            failures.append(f"lambda={lam}: phi_on={phi_on:.5f} expected={on_ref:.5f}")
        if abs(phi_off - off_ref) > 2e-3:
            failures.append(f"lambda={lam}: phi_off={phi_off:.5f} expected={off_ref:.5f}")
    cfg_wide = ModelConfig(delta=1.2, kappa=0.1, eps2=0.2, sigma_z2=0.2, lam=0.01)
    sol = solve_scalar(cfg_wide, PRIOR)
    phi_on, _ = predict_support(sol, cfg_wide, PRIOR, xi)
    if abs(phi_on - SUPPORT_REFERENCE_WIDE) > 2e-3:
        failures.append(
            f"delta=1.2 lambda=0.01: phi_on={phi_on:.5f} expected={SUPPORT_REFERENCE_WIDE:.5f}"
        )
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 5.0
    _report(
        "criterion 3 (support recovery values)",
        ok,
        f"{7 - len(failures)}/7 values within 2e-3, {elapsed:.2f}s",
    )
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    assert not failures, "; ".join(failures)


def test_criterion_4_simulation_matches_theory_mse():
    start = time.monotonic()
    n, trials, xi, seed = 256, 50, 1e-3, 2024
    failures = []
    lines = []
    for lam in (0.301, 1.201, 2.701):
        cfg = ModelConfig(lam=lam, **MSE_CURVE_CONFIG)
        theory = predict_mse(solve_scalar(cfg, PRIOR), cfg, PRIOR)
        rep = run_trials(cfg, PRIOR, n=n, trials=trials, xi=xi, seed=seed)
        gap = abs(rep.mean_mse - theory)
        bound = max(0.015, 3.0 * rep.se_mse)
        lines.append(
            f"lambda={lam}: emp={rep.mean_mse:.5f}+-{rep.se_mse:.5f} "
            f"theory={theory:.5f} gap={gap:.5f} bound={bound:.5f}"
        )
        if gap > bound:
            failures.append(lines[-1])
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 180.0
    _report(
        "criterion 4 (simulation vs theory, MSE)",
        ok,
        f"{3 - len(failures)}/3 points within bound, {elapsed:.1f}s; " + " | ".join(lines),
    )
    assert elapsed < 180.0, f"runtime {elapsed:.1f}s exceeds 3min"
    assert not failures, "; ".join(failures)


def test_criterion_5_simulation_matches_theory_support():
    start = time.monotonic()
    n, trials, xi, seed = 256, 50, 1e-3, 77
    failures = []
    lines = []
    for lam in (0.61, 1.41):
        cfg = ModelConfig(lam=lam, **SUPPORT_CONFIG)
        sol = solve_scalar(cfg, PRIOR)
        on_theory, off_theory = predict_support(sol, cfg, PRIOR, xi)
        rep = run_trials(cfg, PRIOR, n=n, trials=trials, xi=xi, seed=seed)
        for label, emp, se, theory in (
            ("phi_on", rep.mean_phi_on, rep.se_phi_on, on_theory),
            ("phi_off", rep.mean_phi_off, rep.se_phi_off, off_theory),
        ):
            gap = abs(emp - theory)
            bound = max(0.03, 3.0 * se)
            lines.append(
                f"lambda={lam} {label}: emp={emp:.5f}+-{se:.5f} theory={theory:.5f} "
                f"gap={gap:.5f} bound={bound:.5f}"
            )
            if gap > bound:
                failures.append(lines[-1])
    elapsed = time.monotonic() - start
    ok = not failures and elapsed < 180.0
    _report(
        "criterion 5 (simulation vs theory, support)",
        ok,
        f"{4 - len(failures)}/4 rates within bound, {elapsed:.1f}s; " + " | ".join(lines),
    )
    assert elapsed < 180.0, f"runtime {elapsed:.1f}s exceeds 3min"
    assert not failures, "; ".join(failures)


def test_criterion_6_property_suite():
    start = time.monotonic()
    failures = []

    # shrinkage value consistency over 1e5 random points at 1e-12
    rng = np.random.default_rng(123)
    a = rng.normal(0, 5, 100_000)
    t = rng.uniform(1e-3, 4, 100_000)
    worst = 0.0
    for ai, ti in zip(a, t):
        eta = soft_threshold(ai, ti)
        worst = max(
            worst,
            abs(soft_threshold_value(ai, ti) - (0.5 * (eta - ai) ** 2 + ti * abs(eta))),
        )
    if worst > 1e-12:
        failures.append(f"shrinkage value identity off by {worst:.2e}")

    # closed-form Gaussian expectations vs quadrature oracle at 1e-9
    worst = 0.0
    for mu in (0.0, 0.5, -0.5, 1.0, -1.0):
        for tau in (0.1, 0.5, 1.0, 2.0):
            for chi in (0.05, 0.5, 1.0, 3.0):
                worst = max(
                    worst,
                    abs(gauss_expect_e(mu, tau, chi) - oracle_expect_e(mu, tau, chi)),
                    abs(gauss_expect_eta(mu, tau, chi) - oracle_expect_eta(mu, tau, chi)),
                )
    if worst > 1e-9:
        failures.append(f"closed forms vs oracle off by {worst:.2e}")

    # solver KKT residual <= 1e-6 * lambda on at least 95% of trials
    cfg = ModelConfig(lam=0.301, **MSE_CURVE_CONFIG)
    rng = np.random.default_rng(9)
    good = 0
    trials = 20
    for _ in range(trials):
        inst = generate_instance(cfg, PRIOR, 128, rng)
        res = solve_lasso(inst.A, inst.y, cfg.lam)
        good += res.kkt_residual <= 1e-6 * cfg.lam
    if good / trials < 0.95:
        failures.append(f"KKT within 1e-6*lambda on only {good}/{trials} trials")

    # lambda at or above max|A^T y| forces the exact zero solution
    inst = generate_instance(cfg, PRIOR, 64, np.random.default_rng(10))
    lam_max = float(np.max(np.abs(inst.A.T @ inst.y)))
    res = solve_lasso(inst.A, inst.y, lam_max * 1.000001)
    if not np.all(res.x_hat == 0.0):
        failures.append("zero-solution regime returned nonzero estimate")

    # no-uncertainty configuration reduces exactly to the plain objective
    cfg0 = ModelConfig(delta=0.8, kappa=0.1, eps2=0.0, sigma_z2=0.2, lam=1.0)
    for tau, beta in ((0.5, 0.8), (1.0, 1.0)):
        chi = 2.0 * cfg0.lam * tau / beta
        reduced = (
            0.5 * beta * tau * (cfg0.delta - 1.0)
            + 0.5 * beta * cfg0.sigma_z2 / tau
            - 0.25 * beta * beta
            + (beta / tau) * prior_expect_e(PRIOR, 1.0, tau, chi)
        )
        if objective_D(tau, beta, cfg0, PRIOR) != reduced:
            failures.append("no-uncertainty reduction is not exact")
            break

    # saddle certificate on every configuration used above
    configs = [ModelConfig(lam=lam, **MSE_CURVE_CONFIG) for lam in MSE_REFERENCE]
    configs += [ModelConfig(lam=lam, **SUPPORT_CONFIG) for lam in SUPPORT_REFERENCE]
    configs.append(ModelConfig(delta=1.2, kappa=0.1, eps2=0.2, sigma_z2=0.2, lam=0.01))
    for c in configs:
        sol = solve_scalar(c, PRIOR)
        d_star = objective_D(sol.tau_star, sol.beta_star, c, PRIOR)
        for b in (sol.beta_star * (1 - 1e-3), sol.beta_star * (1 + 1e-3)):
            if objective_D(sol.tau_star, b, c, PRIOR) > d_star + 1e-8:
                failures.append(f"beta saddle violation at lam={c.lam}")
        for tpr in (sol.tau_star * (1 - 1e-3), sol.tau_star * (1 + 1e-3)):
            if d_star > maximize_over_beta(tpr, c, PRIOR)[1] + 1e-8:
                failures.append(f"tau saddle violation at lam={c.lam}")
        if predict_mse(sol, c, PRIOR) < -1e-9:
            failures.append(f"negative predicted MSE at lam={c.lam}")

    # heavy regularization collapses the estimate: theory MSE -> kappa
    cfg50 = ModelConfig(lam=50.0, **MSE_CURVE_CONFIG)
    mse50 = predict_mse(solve_scalar(cfg50, PRIOR), cfg50, PRIOR)
    if abs(mse50 - cfg50.kappa) > 1e-3:
        failures.append(f"large-lambda MSE {mse50:.6f} not within 1e-3 of kappa")

    # bitwise reproducibility across grids
    cfg_t = ModelConfig(lam=1.201, **MSE_CURVE_CONFIG)
    alone = run_trials(cfg_t, PRIOR, n=64, trials=8, xi=1e-3, seed=42)
    grid = run_grid(cfg_t, PRIOR, n=64, trials=8, xi=1e-3, seed=42,
                    lambdas=(0.41, cfg_t.lam, 2.5))
    if alone != grid[1]:
        failures.append("run_trials output differs from its cell of a lambda grid")

    elapsed = time.monotonic() - start
    _report(
        "criterion 6 (property suite)",
        not failures,
        f"8 property groups, {elapsed:.1f}s",
    )
    assert not failures, "; ".join(failures)
