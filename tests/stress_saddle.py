"""Stress run of `solve_scalar` over a fixed-seed draw of 2,000 configurations.

delta in [0.05, 20], sigma_z2 in [1e-3, 10] and lambda in [1e-12, 1e5] are
drawn log-uniform, kappa in [0.01, 0.5] and eps2 in [0, 0.9] uniform, with
the sparse Bernoulli prior of sparsity kappa.  Every solve must return a
saddle certified within SADDLE_TOL; the script prints the number of
failures, the total tau and beta evaluations (`outer_iters` and
`inner_iters_total`) and the largest per solve, where the cost of the
Newton searches' starts shows.  It exits 1 when any solve raises
`NonConvergenceError`.  The pytest run does not collect it (its name has no
test_ prefix).  Run from the repository root:

    PYTHONPATH=src python3 tests/stress_saddle.py
"""

import math
import random
import sys

from lasso_mismatch.predictor import ModelConfig, NonConvergenceError, solve_scalar
from lasso_mismatch.prior import sparse_bernoulli

SEED = 2026
DRAWS = 2000


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


def main() -> int:
    failed = []
    tau_evals = beta_evals = worst = 0
    for cfg in configurations():
        try:
            sol = solve_scalar(cfg, sparse_bernoulli(cfg.kappa))
        except NonConvergenceError as exc:
            failed.append((cfg, exc))
            continue
        tau_evals += sol.outer_iters
        beta_evals += sol.inner_iters_total
        worst = max(worst, sol.outer_iters + sol.inner_iters_total)
    print(f"failed: {len(failed)} of {DRAWS}")
    for cfg, exc in failed:
        print(f"  {cfg}: {exc}")
    print(f"total tau evaluations: {tau_evals}, beta evaluations: {beta_evals}")
    print(f"largest solve: {worst} evaluations (tau and beta)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
