"""Stress run of the saddle solver over two fixed-seed draws of 2,000 configurations.

Certify phase: delta in [0.05, 20], sigma_z2 in [1e-3, 10] and lambda in
[1e-12, 1e5] are drawn log-uniform, kappa in [0.01, 0.5] and eps2 in
[0, 0.9] uniform, with the sparse Bernoulli prior of sparsity kappa.  Every
`solve_scalar` must return a saddle certified within SADDLE_TOL, in at most
EVAL_BUDGET saddle evaluations in all (one `_derivatives` evaluation per
joint Newton step, `inner_iters_total`); the script prints the number of
failures, that total and the largest per solve, where the cost of the
Newton iteration's start shows.

Contract phase: delta, sigma_z2 and lambda are powers of ten from 1e-300 to
1e300, kappa is log-uniform in [1e-12, 0.999999] and eps2 uniform in
[0, 0.999999].  Each `predict_report` must return or raise `ValueError` or
`NonConvergenceError`, and a returned report must have a finite MSE >= 0,
also where the MSE lies orders of magnitude below sigma_z2; any other
exception, and any other MSE, is printed.

The script exits 1 when a certify-phase solve raises `NonConvergenceError`,
when the certify phase takes more than EVAL_BUDGET evaluations, or when a
contract-phase call raises anything else or returns another MSE.  The
pytest run does not collect it (its name has no test_ prefix).  Run from the
repository root:

    PYTHONPATH=src python3 tests/stress_saddle.py
"""

import math
import random
import sys
from collections import Counter

from lasso_mismatch.predictor import (
    ModelConfig,
    NonConvergenceError,
    predict_report,
    solve_scalar,
)
from lasso_mismatch.prior import sparse_bernoulli

SEED = 2026
CONTRACT_SEED = 2027
DRAWS = 2000
EVAL_BUDGET = 30_000


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def configurations():
    rng = random.Random(SEED)
    for _ in range(DRAWS):
        yield ModelConfig(
            delta=log_uniform(rng, 0.05, 20.0),
            kappa=rng.uniform(0.01, 0.5),
            eps2=rng.uniform(0.0, 0.9),
            sigma_z2=log_uniform(rng, 1e-3, 10.0),
            lam=log_uniform(rng, 1e-12, 1e5),
        )


def contract_configurations():
    """(delta, kappa, eps2, sigma_z2, lam) at the extremes of the valid range."""
    rng = random.Random(CONTRACT_SEED)
    for _ in range(DRAWS):
        yield (10.0 ** rng.randint(-300, 300),
               min(0.999999, log_uniform(rng, 1e-12, 1.0)),
               rng.uniform(0.0, 0.999999),
               10.0 ** rng.randint(-300, 300),
               10.0 ** rng.randint(-300, 300))


def contract() -> int:
    """Run the contract phase; the number of calls that broke the contract."""
    outcomes = Counter()
    broken = 0
    for delta, kappa, eps2, sigma_z2, lam in contract_configurations():
        try:
            cfg = ModelConfig(delta=delta, kappa=kappa, eps2=eps2, sigma_z2=sigma_z2, lam=lam)
            mse = predict_report(cfg, sparse_bernoulli(kappa), 1e-3).mse
        except (ValueError, NonConvergenceError) as exc:
            outcomes[type(exc).__name__] += 1
            continue
        except Exception as exc:  # the contract allows no other kind
            problem = f"{type(exc).__name__}: {exc}"
        else:
            outcomes["returned"] += 1
            if 0.0 <= mse < math.inf:
                continue
            problem = f"returned MSE {mse!r}"
        broken += 1
        print(f"  delta={delta:g} kappa={kappa!r} eps2={eps2!r} sigma_z2={sigma_z2:g} "
              f"lam={lam:g}: {problem}")
    print(f"contract: {broken} of {DRAWS} broken; "
          + ", ".join(f"{kind} {count}" for kind, count in sorted(outcomes.items())))
    return broken


def main() -> int:
    failed = []
    evals = worst = 0
    for cfg in configurations():
        try:
            sol = solve_scalar(cfg, sparse_bernoulli(cfg.kappa))
        except NonConvergenceError as exc:
            failed.append((cfg, exc))
            continue
        evals += sol.inner_iters_total
        worst = max(worst, sol.inner_iters_total)
    print(f"failed: {len(failed)} of {DRAWS}")
    for cfg, exc in failed:
        print(f"  {cfg}: {exc}")
    print(f"total saddle evaluations: {evals} (budget {EVAL_BUDGET})")
    print(f"largest solve: {worst} evaluations")
    broken = contract()
    return 1 if failed or evals > EVAL_BUDGET or broken else 0


if __name__ == "__main__":
    sys.exit(main())
