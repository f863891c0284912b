"""Stress run of `solve_lasso` on small, badly scaled problems at a tiny lambda.

The recipe of `TestPolish::test_full_square_support_is_solved`, over seeds
0-299: m from 6 to 80, n from m - 4 to m, entries of A and y at a scale
between 1e-3 and 1e3, lambda = 1e-6 ||A^T y||_inf and max_iter 5000.  There
the KKT gate's floor of 64 ulps of ||A^T y||_inf can lie below the rounding
of an exact solve, so a few problems stay non-converged.  The script prints
the non-converged seeds, the total iteration count, the number of
hand-overs (solves whose float32 iterations gave way to float64 ones before
the solve ended), the total float32 iterations, the total products
with A (`matvecs`) and dense factorizations (`exact_solves`), where the cost
of the exact solves and the active-set search shows, and how many solves
end at each exit: x = 0 before any iteration, an exact solve, FISTA's own
KKT check (after a float64 step at its rounding floor) or max_iter.  It
exits 1 when a problem outside `KNOWN_NONCONVERGED` is non-converged; a
known seed that converges passes.  The pytest run does not collect it (its
name has no test_ prefix).  Run from the repository root:

    PYTHONPATH=src python3 tests/stress_lasso.py
"""

import sys

import numpy as np

from lasso_mismatch.simulator import solve_lasso

SEEDS = range(300)
MAX_ITER = 5000
# non-converged problems of this recipe once the active-set search could
# reach |S| = m
KNOWN_NONCONVERGED = {13, 100, 220, 223, 229, 287}


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
    iters = handovers = float32_iters = matvecs = exact_solves = 0
    exits = dict.fromkeys(("x = 0", "exact solve", "FISTA's own check", "max_iter"), 0)
    for seed in SEEDS:
        res = solve_lasso(*problem(seed), max_iter=MAX_ITER)
        iters += res.iters
        handovers += 0 < res.float32_iters < res.iters
        float32_iters += res.float32_iters
        matvecs += res.matvecs
        exact_solves += res.exact_solves
        if res.iters == 0:
            exits["x = 0"] += 1
        elif res.polished:
            exits["exact solve"] += 1
        elif res.iters == MAX_ITER:
            exits["max_iter"] += 1
        else:
            exits["FISTA's own check"] += 1
        if not res.converged:
            failed.append(seed)
    print(f"non-converged: {len(failed)} of {len(SEEDS)} (seeds {failed})")
    print(f"total iterations: {iters}")
    print(f"hand-overs from float32 to float64: {handovers} "
          f"(float32 iterations: {float32_iters})")
    print(f"total products with A: {matvecs} (dense factorizations: {exact_solves})")
    print("exits: " + ", ".join(f"{kind} {count}" for kind, count in exits.items()))
    new = sorted(set(failed) - KNOWN_NONCONVERGED)
    if new:
        print(f"non-converged beyond the known seeds: {new}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
