"""Stress run of `solve_lasso` on small, badly scaled problems at a tiny lambda.

The recipe of `TestPolish::test_full_square_support_is_solved`, over seeds
0-299: m from 6 to 80, n from m - 4 to m, entries of A and y at a scale
between 1e-3 and 1e3, lambda = 1e-6 ||A^T y||_inf and max_iter 5000.  There
the KKT gate's floor of 64 ulps of ||A^T y||_inf can lie below the rounding
of an exact solve, so a few problems stay non-converged.  The script prints
the non-converged seeds and the total iteration count, and exits 1 when more
than `MAX_NONCONVERGED` problems are non-converged.  The pytest run does not
collect it (its name has no test_ prefix).  Run from the repository root:

    PYTHONPATH=src python3 tests/stress_lasso.py
"""

import sys

import numpy as np

from lasso_mismatch.simulator import solve_lasso

SEEDS = range(300)
MAX_ITER = 5000
# non-converged problems of this recipe at the time the script was written
MAX_NONCONVERGED = 8


def problem(seed: int) -> tuple[np.ndarray, np.ndarray, float]:
    rng = np.random.default_rng(seed)
    m = rng.integers(6, 81)
    n = rng.integers(max(2, m - 4), m + 1)
    scale = 10 ** rng.uniform(-3, 3)
    A = rng.normal(0.0, scale, (m, n))
    y = rng.normal(0.0, scale, m)
    return A, y, 1e-6 * float(np.max(np.abs(A.T @ y)))


def main() -> int:
    failed = []
    iters = 0
    for seed in SEEDS:
        res = solve_lasso(*problem(seed), max_iter=MAX_ITER)
        iters += res.iters
        if not res.converged:
            failed.append(seed)
    print(f"non-converged: {len(failed)} of {len(SEEDS)} (seeds {failed})")
    print(f"total iterations: {iters}")
    if len(failed) > MAX_NONCONVERGED:
        print(f"more than {MAX_NONCONVERGED} non-converged")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
