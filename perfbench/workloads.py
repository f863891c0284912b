"""The benchmark's workloads: seeded inputs, one timed pass, and output checks.

A workload is a fixed list of calls into the package's public API:
`cli.parse_args` builds each sweep's inputs, `cli.run_sweep` and
`cli.emit_csv` produce its rows and CSV, and `predictor.optimal_lambda` runs
the searches.  A pass makes every call once; the same seed gives the same
inputs and, the program being deterministic, the same outputs on every pass.

Seed 0 reproduces the paper presets exactly.  Other seeds shift each point of
the theory-sweep grids upward by a seeded offset of at most a quarter step,
and set the Monte Carlo master seed.
"""

from __future__ import annotations

import csv
import io
import json
import math
import mmap
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lasso_mismatch import cli, predictor
from lasso_mismatch.predictor import ModelConfig, NonConvergenceError, objective_D
from lasso_mismatch.prior import Prior, sparse_bernoulli

REFERENCE_PATH = Path(__file__).resolve().parent / "reference_seed0.json"

FIG1 = dict(delta=0.8, kappa=0.1, eps2=0.1, snr=0.5)
FIG2 = dict(delta=0.8, kappa=0.1, eps2=0.2, snr=0.5)
# over-determined with heavy mismatch: the other side of the bracket searches
HEAVY = dict(delta=2.0, kappa=0.1, eps2=0.5, snr=0.5)
FIG1_GRID, FIG1_STEP = tuple(round(0.001 + 0.1 * i, 3) for i in range(60)), 0.1
FIG2_GRID = tuple(round(0.01 + 0.2 * i, 2) for i in range(15))
OPTLAM_INTERVAL = (0.5, 3.0)
MC_SWEEP_N, MC_SWEEP_TRIALS = 256, 50
LARGE_N, LARGE_N_TRIALS, LARGE_N_LAMBDA = 1024, 16, 0.41

THEORY_COLUMNS = ("tau_star", "beta_star", "mse_theory", "phi_on_theory", "phi_off_theory")
MC_COLUMNS = (
    "mse_emp_mean", "mse_emp_se", "phi_on_emp_mean", "phi_on_emp_se",
    "phi_off_emp_mean", "phi_off_emp_se",
)

# saddle certificate: relative step and slack on D
CERT_STEP, CERT_TOL = 1e-3, 1e-8
# seed-0 reference match, relative to max(1, |reference|); lambda_opt is
# located to a bracket of width 1e-4, so it gets twice that
REF_RTOL, REF_LAMBDA_ATOL = 1e-6, 2e-4
# criteria 4-5 agreement rules, gap <= max(floor, k SE), with k = 4 rather
# than 3: a run makes 45 such comparisons and a check makes about 70 runs.
# At lambda = 0.01 and n = 256 the MC mean MSE sits 0.8 SE above theory on
# average (30 seeds), where 3 SE would fail about one seed in 70.
MSE_FLOOR, PHI_FLOOR, SE_MULT = 0.015, 0.03, 4.0

WORKLOADS = ("theory-sweep", "mc-sweep", "mc-large-n")

# A shared host runs identical work anywhere from 0.7x to 1.3x its usual
# speed, in spells of seconds to minutes, so a run's raw time says as much
# about the host as about the program.  Each call of a pass is therefore
# bracketed by a speed probe: a fixed loop of the same kind of work as the
# call, timed just before and just after it.  The call's time scaled by
# REF_SECONDS / (the probe's mean time) is its time at the reference speed.
# Every probe takes about REF_SECONDS on the baseline machine.
REF_SECONDS = 0.02


def python_probe() -> float:
    """Seconds for a fixed scalar loop, like the theory's closed-form kernels."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(160_000):
        acc += math.erfc(i * 1e-5)
    return time.perf_counter() - t0


class MatvecProbe:
    """Seconds for fixed gradient steps with an m x n matrix, like FISTA's.

    A matrix that fits in 1 MiB is probed at 205 x 256, where the cost is
    per-call overhead; a larger one at 819 x 1024, where it is memory traffic.
    """

    def __init__(self, m: int, n: int) -> None:
        self.shape, self.reps = ((205, 256), 1000) if m * n * 8 <= 1 << 20 else ((819, 1024), 32)

    def __call__(self) -> float:
        # The matrix is rebuilt on every call in a mapping of its own, which is
        # unmapped on return, so it is never resident while the program runs
        # and stays out of the run's peak RSS.  It starts 16 bytes into the
        # mapping, as numpy's own arrays start 16 bytes into theirs; a
        # page-aligned matrix made the 205 x 256 probe 25% faster.
        m, n = self.shape
        rng = np.random.default_rng(0)
        with mmap.mmap(-1, 16 + m * n * 8) as buf:
            A = np.frombuffer(buf, count=m * n, offset=16).reshape(m, n)
            rng.standard_normal(out=A)
            A /= math.sqrt(n)
            x, y = rng.normal(size=n), rng.normal(size=m)
            t0 = time.perf_counter()
            v = x
            for _ in range(self.reps):
                v = v - 0.1 * (A.T @ (A @ v - y))
            elapsed = time.perf_counter() - t0
            del A  # the mapping cannot close while an array still uses it
        return elapsed


@dataclass(frozen=True)
class Sweep:
    label: str
    spec: cli.SweepSpec


@dataclass(frozen=True)
class Search:
    label: str
    cfg: ModelConfig
    prior: Prior


@dataclass
class PassResult:
    times: dict[str, float]  # label -> seconds of that call
    scales: dict[str, float]  # label -> REF_SECONDS / the probe's mean time around the call
    outputs: dict[str, object]  # label -> (rows, csv text), (lam, mse) or the exception

    @property
    def wall(self) -> float:
        """Raw seconds of the pass's calls."""
        return sum(self.times.values())

    @property
    def wall_ref(self) -> float:
        """Seconds of the pass's calls at the reference speed."""
        return sum(t * self.scales[label] for label, t in self.times.items())


@dataclass
class Workload:
    name: str
    seed: int
    sweeps: tuple[Sweep, ...]
    searches: tuple[Search, ...] = ()
    probes: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.probes = {q.label: python_probe for q in self.searches}
        for s in self.sweeps:
            spec = s.spec
            self.probes[s.label] = python_probe if spec.mode == "theory" else MatvecProbe(
                int(math.floor(spec.delta * spec.n + 0.5)), spec.n)

    @property
    def cells_per_pass(self) -> int:
        """Lambda cells per pass: theory cells, or MC cells where a sweep simulates."""
        return sum(len(s.spec.lambda_grid) for s in self.sweeps)

    @property
    def trials_per_pass(self) -> int:
        return sum(
            len(s.spec.lambda_grid) * s.spec.trials
            for s in self.sweeps if s.spec.mode != "theory"
        )

    def run_pass(self) -> PassResult:
        """Make every call of the workload once; the caller checks the outputs."""
        times, scales, outputs = {}, {}, {}
        for s in self.sweeps:
            def call(spec=s.spec):
                rows = cli.run_sweep(spec)
                buf = io.StringIO()
                cli.emit_csv(rows, buf)
                return rows, buf.getvalue()
            self._timed(s.label, call, cli.ComputationError, times, scales, outputs)
        for q in self.searches:
            self._timed(q.label, lambda q=q: predictor.optimal_lambda(q.cfg, q.prior, OPTLAM_INTERVAL),
                        (NonConvergenceError, ValueError), times, scales, outputs)
        return PassResult(times=times, scales=scales, outputs=outputs)

    def _timed(self, label, call, errors, times, scales, outputs) -> None:
        probe = self.probes[label]
        before = probe()
        t0 = time.perf_counter()
        try:
            outputs[label] = call()
        except errors as exc:
            outputs[label] = exc
        times[label] = time.perf_counter() - t0
        scales[label] = REF_SECONDS / (0.5 * (before + probe()))


def _sweep_argv(base: dict, grid, mode: str, seed: int, n=None, trials=None) -> list[str]:
    argv = [
        "--delta", repr(base["delta"]), "--kappa", repr(base["kappa"]),
        "--eps2", repr(base["eps2"]), "--snr", repr(base["snr"]),
        "--lambda-list", ",".join(repr(lam) for lam in grid),
        "--mode", mode, "--seed", str(seed),
    ]
    if n is not None:
        argv += ["--n", str(n), "--trials", str(trials)]
    return argv


def _shifted(grid, step: float, rng: random.Random | None):
    if rng is None:
        return grid
    return tuple(lam + 0.25 * step * rng.random() for lam in grid)


def build(name: str, seed: int) -> Workload:
    """Inputs of workload `name` for `seed`, parsed through the public CLI."""
    mc_seed = seed % 2**63
    if name == "theory-sweep":
        rng = random.Random(seed) if seed != 0 else None
        sweeps = (
            Sweep("fig1", cli.parse_args(
                _sweep_argv(FIG1, _shifted(FIG1_GRID, FIG1_STEP, rng), "theory", 0))),
            Sweep("heavy", cli.parse_args(
                _sweep_argv(HEAVY, _shifted(FIG1_GRID, FIG1_STEP, rng), "theory", 0))),
        )
        searches = tuple(
            Search(label, ModelConfig.from_snr(lam=1.0, **base), sparse_bernoulli(base["kappa"]))
            for label, base in (("optlam-fig1", FIG1), ("optlam-fig2", FIG2))
        )
        return Workload(name, seed, sweeps, searches)
    if name == "mc-sweep":
        spec = cli.parse_args(
            _sweep_argv(FIG2, FIG2_GRID, "both", mc_seed, MC_SWEEP_N, MC_SWEEP_TRIALS))
        return Workload(name, seed, (Sweep("fig2", spec),))
    if name == "mc-large-n":
        spec = cli.parse_args(
            _sweep_argv(FIG2, (LARGE_N_LAMBDA,), "simulate", mc_seed, LARGE_N, LARGE_N_TRIALS))
        return Workload(name, seed, (Sweep("large", spec),))
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")


def load_reference(workload: Workload) -> dict | None:
    """Seed-0 reference outputs for `workload`, or None at other seeds."""
    if workload.seed != 0:
        return None
    with open(REFERENCE_PATH, encoding="ascii") as fh:
        return json.load(fh).get(workload.name)


def theory_values(rows: list[dict]) -> list[list[float]]:
    """The reference form of a sweep's theory output: lambda then THEORY_COLUMNS."""
    return [[row["lambda"]] + [row[c] for c in THEORY_COLUMNS] for row in rows]


def _close(got: float, ref: float, rtol: float = REF_RTOL) -> bool:
    return abs(got - ref) <= rtol * max(1.0, abs(ref))


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def saddle_certified(tau: float, beta: float, cfg: ModelConfig, p: Prior) -> bool:
    """D is minimal in tau and maximal in beta under small relative steps."""
    d = objective_D(tau, beta, cfg, p)
    for s in (1.0 - CERT_STEP, 1.0 + CERT_STEP):
        if objective_D(tau, beta * s, cfg, p) > d + CERT_TOL:
            return False
        if objective_D(tau * s, beta, cfg, p) < d - CERT_TOL:
            return False
    return True


def _agrees(emp: float, se: float, theory: float, floor: float) -> bool:
    return abs(emp - theory) <= max(floor, SE_MULT * se)


@dataclass
class Checker:
    """Checks pass outputs outside the timed region and counts operations.

    Operations: each theory cell, each emitted CSV, each optimal-lambda
    search, each Monte Carlo trial and each Monte Carlo cell.  A cell fails
    when its sweep raised, its saddle point fails the certificate, a value is
    out of range, it differs from the seed-0 reference or from the first
    pass, or (MC cells) it disagrees with theory; a trial fails when it is
    not converged within its KKT gate.
    """

    workload: Workload
    reference: dict | None = None
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    _first: dict | None = None
    _theory: dict = field(default_factory=dict)

    def _count(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)

    def check(self, result: PassResult) -> None:
        first = self._first
        if first is None:
            self._first = first = result.outputs
        for s in self.workload.sweeps:
            self._check_sweep(s, result.outputs[s.label], first[s.label])
        for q in self.workload.searches:
            out = result.outputs[q.label]
            self._check_search(q, out, not isinstance(out, Exception) and out == first[q.label])

    def _check_sweep(self, s: Sweep, out, first) -> None:
        spec = s.spec
        cells = len(spec.lambda_grid)
        mc = spec.mode != "theory"
        if isinstance(out, Exception):
            self._count(False, f"{s.label}: sweep raised: {out}")
            for lam in spec.lambda_grid:
                if spec.mode != "simulate":
                    self._count(False, f"{s.label} lambda={lam}: sweep raised")
                if mc:
                    for _ in range(spec.trials):
                        self._count(False, f"{s.label} lambda={lam}: trial not run")
                    self._count(False, f"{s.label} lambda={lam}: MC cell not run")
            return
        rows, text = out
        first_rows = [] if isinstance(first, Exception) else first[0]
        grid_ok = len(rows) == cells and all(
            row["lambda"] == lam for row, lam in zip(rows, spec.lambda_grid))
        self._count(grid_ok and _csv_matches(rows, text), f"{s.label}: rows or CSV malformed")
        if not grid_ok:
            return
        prior = sparse_bernoulli(spec.kappa)
        ref = self.reference.get(s.label) if self.reference else None
        for i, row in enumerate(rows):
            lam = row["lambda"]
            same = i < len(first_rows) and row == first_rows[i]
            cfg = ModelConfig(delta=spec.delta, kappa=spec.kappa, eps2=spec.eps2,
                              sigma_z2=spec.sigma_z2, lam=lam)
            where = f"{s.label} lambda={lam:g}"
            if spec.mode != "simulate":
                self._count(same and self._theory_ok(row, cfg, prior, ref and ref[i]),
                            f"{where}: theory cell failed its checks")
                theory = (row["mse_theory"], row["phi_on_theory"], row["phi_off_theory"])
            else:
                theory = self._theory_for(cfg, prior, spec.xi)
            if mc:
                bad = row["nonconverged_trials"]
                for t in range(spec.trials):
                    self._count(t >= bad, f"{where}: trial not converged within KKT gate")
                self._count(same and _mc_ok(row, theory), f"{where}: MC cell disagrees with theory")

    def _theory_ok(self, row: dict, cfg: ModelConfig, prior: Prior, ref) -> bool:
        vals = [row[c] for c in THEORY_COLUMNS]
        if not _finite(*vals):
            return False
        tau, beta, mse, on, off = vals
        if tau <= 0.0 or beta <= 0.0 or mse < 0.0 or not (0.0 <= on <= 1.0 and 0.0 <= off <= 1.0):
            return False
        if ref is not None and not (
            ref[0] == row["lambda"] and all(_close(v, r) for v, r in zip(vals, ref[1:]))
        ):
            return False
        return saddle_certified(tau, beta, cfg, prior)

    def _theory_for(self, cfg: ModelConfig, prior: Prior, xi: float):
        key = (cfg, xi)
        if key not in self._theory:
            rep = predictor.predict_report(cfg, prior, xi)
            self._theory[key] = (rep.mse, rep.phi_on, rep.phi_off)
        return self._theory[key]

    def _check_search(self, q: Search, out, same: bool) -> None:
        ok = same
        if ok:
            lam, mse = out
            lo, hi = OPTLAM_INTERVAL
            ok = _finite(lam, mse) and lo <= lam <= hi and mse >= 0.0
            ref = self.reference.get(q.label) if self.reference else None
            if ok and ref is not None:
                ok = abs(lam - ref[0]) <= REF_LAMBDA_ATOL and _close(mse, ref[1])
        self._count(ok, f"{q.label}: optimal_lambda failed its checks")


def _mc_ok(row: dict, theory) -> bool:
    vals = [row[c] for c in MC_COLUMNS]
    if not _finite(*vals, *theory):
        return False
    mse, mse_se, on, on_se, off, off_se = vals
    if mse < 0.0 or not (0.0 <= on <= 1.0 and 0.0 <= off <= 1.0):
        return False
    return (
        _agrees(mse, mse_se, theory[0], MSE_FLOOR)
        and _agrees(on, on_se, theory[1], PHI_FLOOR)
        and _agrees(off, off_se, theory[2], PHI_FLOOR)
    )


def _csv_matches(rows: list[dict], text: str) -> bool:
    """The CSV has the header and one line per row, each value within 12 digits."""
    lines = list(csv.reader(io.StringIO(text)))
    if not lines or tuple(lines[0]) != cli.CSV_COLUMNS or len(lines) != len(rows) + 1:
        return False
    for row, line in zip(rows, lines[1:]):
        for col, cell in zip(cli.CSV_COLUMNS, line):
            value = row[col]
            if value is None:
                if cell != "":
                    return False
            else:
                try:
                    if not _close(float(cell), value, 1e-11):
                        return False
                except ValueError:
                    return False
    return True
