"""Command-line front end: sweep the regularization weight, emit CSV.

Each row of the output covers one lambda: the scalar-theory predictions, the
Monte Carlo measurements, or both.  Absent columns are left empty rather than
zero-filled.  `run_sweep` returns each row as a `SweepRow`, a read-only
mapping from every CSV column to its value or None.  Exit codes: 0 success,
1 usage error, 2 computation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from array import array
from collections.abc import Mapping
from dataclasses import dataclass

from .kernels import _check_positive
from .predictor import ModelConfig, predict_report
from .prior import sparse_bernoulli

__all__ = [
    "SweepSpec",
    "SweepRow",
    "UsageError",
    "ComputationError",
    "parse_args",
    "run_sweep",
    "emit_csv",
    "main",
]

CSV_COLUMNS = (
    "lambda",
    "tau_star",
    "beta_star",
    "mse_theory",
    "phi_on_theory",
    "phi_off_theory",
    "mse_emp_mean",
    "mse_emp_se",
    "phi_on_emp_mean",
    "phi_on_emp_se",
    "phi_off_emp_mean",
    "phi_off_emp_se",
    "nonconverged_trials",
)


class SweepRow(Mapping):
    """One output row: a read-only mapping from each CSV column to its value or None.

    The rows of a sweep share its column map, which holds every CSV column:
    an array for each column that the mode fills (doubles; integers for
    nonconverged_trials) and None for the rest.  So a row costs about 50
    bytes plus 8 per filled column, where a dict of 13 keys and its floats
    costs about 600.
    """

    __slots__ = ("_columns", "_index")

    def __init__(self, columns: dict[str, array | None], index: int) -> None:
        self._columns = columns
        self._index = index

    def __getitem__(self, col: str):
        column = self._columns[col]
        return None if column is None else column[self._index]

    def __iter__(self):
        return iter(CSV_COLUMNS)

    def __len__(self) -> int:
        return len(CSV_COLUMNS)

    def __repr__(self) -> str:
        return f"SweepRow({dict(self)!r})"


# pinned sweep configurations for the two reference figures
_FIG_PRESETS = {
    1: dict(
        delta=0.8, kappa=0.1, eps2=0.1, snr=0.5,
        grid=tuple(round(0.001 + 0.1 * i, 3) for i in range(60)),
    ),
    2: dict(
        delta=0.8, kappa=0.1, eps2=0.2, snr=0.5,
        grid=tuple(round(0.01 + 0.2 * i, 2) for i in range(15)),
    ),
}


class UsageError(Exception):
    """Bad command line; maps to exit status 1."""


class ComputationError(Exception):
    """A sweep cell failed; maps to exit status 2."""


@dataclass(frozen=True)
class SweepSpec:
    """Validated sweep request: base model, lambda grid, and run mode."""

    delta: float
    kappa: float
    eps2: float
    sigma_z2: float
    lambda_grid: tuple[float, ...]
    xi: float
    n: int | None
    trials: int | None
    seed: int
    mode: str
    out: str | None

    def __post_init__(self) -> None:
        if self.mode not in ("theory", "simulate", "both"):
            raise UsageError(f"mode must be theory, simulate or both, got {self.mode!r}")
        if not self.lambda_grid:
            raise UsageError("lambda grid is empty")
        prev = 0.0
        for lam in self.lambda_grid:
            # NaN fails every comparison, so this rejects it too
            if not prev < lam < math.inf:
                raise UsageError(
                    "lambda grid must be strictly increasing, positive and finite, "
                    f"got {self.lambda_grid}")
            prev = lam
        simulate = self.mode in ("simulate", "both")
        if simulate:
            if self.n is None or self.trials is None:
                raise UsageError(f"mode {self.mode} requires --n and --trials")
        try:
            _check_positive("xi", self.xi)
            # lambda does not change what else the model accepts
            base = ModelConfig(delta=self.delta, kappa=self.kappa, eps2=self.eps2,
                               sigma_z2=self.sigma_z2, lam=self.lambda_grid[0])
            if simulate:
                # imported here, as in run_sweep: the simulator loads numpy
                from .simulator import _check_run

                _check_run(base, sparse_bernoulli(self.kappa), self.n, self.trials, self.seed)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit status 2
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(
        prog="lasso-mismatch",
        description="Sweep lambda: scalar-theory predictions and/or LASSO Monte Carlo, as CSV.",
    )
    p.add_argument("--delta", type=float, help="measurements per unknown (m/n)")
    p.add_argument("--kappa", type=float, help="sparsity ratio (k/n)")
    p.add_argument("--eps2", type=float, help="measurement-matrix error variance")
    noise = p.add_mutually_exclusive_group()
    noise.add_argument("--sigma-z2", type=float, dest="sigma_z2", help="noise variance")
    noise.add_argument("--snr", type=float, help="kappa / sigma_z2; sets the noise variance")
    p.add_argument("--lambda-list", type=str, help="comma-separated lambda grid")
    p.add_argument("--lambda-min", type=float)
    p.add_argument("--lambda-max", type=float)
    p.add_argument("--lambda-steps", type=int)
    p.add_argument("--xi", type=float, default=1e-3, help="support threshold (default 1e-3)")
    p.add_argument("--n", type=int, help="problem size for simulation")
    p.add_argument("--trials", type=int, help="Monte Carlo trials per lambda")
    p.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p.add_argument("--mode", choices=("theory", "simulate", "both"), default="theory")
    p.add_argument("--out", type=str, default=None, help="CSV path (default stdout)")
    p.add_argument(
        "--reproduce-fig", type=int, choices=(1, 2), dest="reproduce_fig",
        help="use the pinned reference sweep 1 (MSE) or 2 (support recovery)",
    )
    return p


def parse_args(argv: list[str]) -> SweepSpec:
    """Parse and validate flags into a SweepSpec; raises UsageError on bad input."""
    ns = _build_parser().parse_args(argv)

    if ns.reproduce_fig is not None:
        conflicting = [
            name for name, val in (
                ("--delta", ns.delta), ("--kappa", ns.kappa), ("--eps2", ns.eps2),
                ("--sigma-z2", ns.sigma_z2), ("--snr", ns.snr),
                ("--lambda-list", ns.lambda_list), ("--lambda-min", ns.lambda_min),
                ("--lambda-max", ns.lambda_max), ("--lambda-steps", ns.lambda_steps),
            ) if val is not None
        ]
        if conflicting:
            raise UsageError(
                f"--reproduce-fig pins the base configuration; drop {', '.join(conflicting)}"
            )
        preset = _FIG_PRESETS[ns.reproduce_fig]
        delta, kappa, eps2, snr = preset["delta"], preset["kappa"], preset["eps2"], preset["snr"]
        sigma_z2, grid = None, preset["grid"]
    else:
        missing = [name for name, val in (
            ("--delta", ns.delta), ("--kappa", ns.kappa), ("--eps2", ns.eps2)) if val is None]
        if missing:
            raise UsageError(f"missing required flags: {', '.join(missing)}")
        if ns.sigma_z2 is None and ns.snr is None:
            raise UsageError("one of --sigma-z2 or --snr is required")
        delta, kappa, eps2, sigma_z2, snr = ns.delta, ns.kappa, ns.eps2, ns.sigma_z2, ns.snr
        if ns.lambda_list is not None:
            if any(v is not None for v in (ns.lambda_min, ns.lambda_max, ns.lambda_steps)):
                raise UsageError("--lambda-list excludes --lambda-min/--lambda-max/--lambda-steps")
            try:
                grid = tuple(float(s) for s in ns.lambda_list.split(",") if s.strip())
            except ValueError as exc:
                raise UsageError(f"bad --lambda-list: {exc}") from exc
        else:
            if None in (ns.lambda_min, ns.lambda_max, ns.lambda_steps):
                raise UsageError(
                    "provide --lambda-list or all of --lambda-min/--lambda-max/--lambda-steps"
                )
            if ns.lambda_steps < 1:
                raise UsageError("--lambda-steps must be at least 1")
            if ns.lambda_steps == 1:
                grid = (ns.lambda_min,)
            else:
                step = (ns.lambda_max - ns.lambda_min) / (ns.lambda_steps - 1)
                grid = tuple(ns.lambda_min + step * i for i in range(ns.lambda_steps))

    if sigma_z2 is None:
        try:
            # lambda does not change what from_snr accepts
            sigma_z2 = ModelConfig.from_snr(delta, kappa, eps2, snr, lam=1.0).sigma_z2
        except ValueError as exc:
            raise UsageError(str(exc)) from exc

    return SweepSpec(
        delta=delta, kappa=kappa, eps2=eps2, sigma_z2=sigma_z2,
        lambda_grid=grid, xi=ns.xi, n=ns.n, trials=ns.trials,
        seed=ns.seed, mode=ns.mode, out=ns.out,
    )


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Compute one row per lambda, in grid order; deterministic for a fixed spec.

    The Monte Carlo columns of all rows come from one `run_grid` call, which
    draws each trial's instance once for the whole grid.
    """
    prior = sparse_bernoulli(spec.kappa)
    grid = spec.lambda_grid
    # SweepSpec has checked the model and every lambda
    base = ModelConfig(delta=spec.delta, kappa=spec.kappa, eps2=spec.eps2,
                       sigma_z2=spec.sigma_z2, lam=grid[0])
    # every column, filled in every row or in none
    columns: dict[str, array | None] = dict.fromkeys(CSV_COLUMNS)
    columns["lambda"] = array("d", grid)
    if spec.mode in ("theory", "both"):
        predictions = []
        for lam in grid:
            try:
                predictions.append(predict_report(base.with_lam(lam), prior, spec.xi))
            except (ValueError, RuntimeError) as exc:
                raise ComputationError(f"lambda={lam:g}: {exc}") from exc
        columns["tau_star"] = array("d", [pred.solution.tau_star for pred in predictions])
        columns["beta_star"] = array("d", [pred.solution.beta_star for pred in predictions])
        columns["mse_theory"] = array("d", [pred.mse for pred in predictions])
        columns["phi_on_theory"] = array("d", [pred.phi_on for pred in predictions])
        columns["phi_off_theory"] = array("d", [pred.phi_off for pred in predictions])
    if spec.mode in ("simulate", "both"):
        # imported here, so a theory sweep never loads the simulator or numpy
        from .simulator import run_grid

        try:
            # instances do not depend on lambda: any cell's cfg describes them
            reports = run_grid(base, prior, spec.n, spec.trials, spec.xi, spec.seed, grid)
        except (ValueError, RuntimeError, MemoryError) as exc:
            raise ComputationError(f"lambda={grid[0]:g}..{grid[-1]:g}: {exc}") from exc
        columns["mse_emp_mean"] = array("d", [emp.mean_mse for emp in reports])
        columns["mse_emp_se"] = array("d", [emp.se_mse for emp in reports])
        columns["phi_on_emp_mean"] = array("d", [emp.mean_phi_on for emp in reports])
        columns["phi_on_emp_se"] = array("d", [emp.se_phi_on for emp in reports])
        columns["phi_off_emp_mean"] = array("d", [emp.mean_phi_off for emp in reports])
        columns["phi_off_emp_se"] = array("d", [emp.se_phi_off for emp in reports])
        columns["nonconverged_trials"] = array("q", [emp.nonconverged_trials for emp in reports])
    return [SweepRow(columns, i) for i in range(len(grid))]


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return format(value, ".12g")


def emit_csv(rows: list[Mapping], out) -> None:
    """Write header and rows to a text sink; floats carry 12 significant digits."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for row in rows:
        writer.writerow([_format_cell(row.get(col)) for col in CSV_COLUMNS])


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        spec = parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    try:
        rows = run_sweep(spec)
    except ComputationError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2
    try:
        if spec.out is None or spec.out == "-":
            emit_csv(rows, sys.stdout)
        else:
            with open(spec.out, "w", encoding="ascii", newline="") as fh:
                emit_csv(rows, fh)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
