"""Tests of the benchmark itself: its checker, its tracer and its output contract.

    python3 -m pytest -q perfbench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from lasso_mismatch import cli  # noqa: E402


def _sweep(label, mode, grid, n=None, trials=None, seed=5):
    argv = workloads._sweep_argv(workloads.FIG2, grid, mode, seed, n, trials)
    return workloads.Sweep(label, cli.parse_args(argv))


@pytest.fixture(scope="module")
def small():
    """A workload with every layer busy, small enough to run in a second."""
    return workloads.Workload("small", 5, (
        _sweep("theory", "theory", (0.41, 1.21)),
        _sweep("mc", "both", (0.61, 1.41), n=48, trials=3),
    ))


def _corrupt(result, label, index, column, value):
    rows, text = result.outputs[label]
    rows = [dict(r) for r in rows]
    rows[index][column] = value
    outputs = dict(result.outputs, **{label: (rows, text)})
    return replace(result, outputs=outputs)


def test_checker_passes_clean_outputs(small):
    checker = workloads.Checker(small)
    checker.check(small.run_pass())
    assert checker.failed == 0, checker.problems
    # 2 CSVs, 4 theory cells, 2 x 3 trials, 2 MC cells
    assert checker.attempted == 14


def test_checker_flags_corrupted_theory_row(small):
    clean = small.run_pass()
    rows = clean.outputs["theory"][0]
    reference = {"theory": workloads.theory_values(rows)}

    moved_tau = _corrupt(clean, "theory", 0, "tau_star", rows[0]["tau_star"] * 1.01)
    checker = workloads.Checker(small)
    checker.check(moved_tau)
    assert checker.failed == 2  # the certificate and the CSV no longer match the row

    off_reference = _corrupt(clean, "theory", 1, "mse_theory", rows[1]["mse_theory"] + 1e-4)
    checker = workloads.Checker(small, reference)
    checker.check(off_reference)
    assert any("lambda=1.21" in p for p in checker.problems)

    checker = workloads.Checker(small)
    checker.check(clean)
    checker.check(_corrupt(clean, "theory", 0, "phi_on_theory", 1.5))
    assert checker.failed == 2  # the cell, and the CSV that no longer matches it


def test_checker_flags_nonconverged_trial(small):
    clean = small.run_pass()
    checker = workloads.Checker(small)
    checker.check(_corrupt(clean, "mc", 1, "nonconverged_trials", 1))
    assert checker.failed == 2  # the trial, and the CSV that no longer matches
    assert any("not converged" in p for p in checker.problems)

    rows = clean.outputs["mc"][0]
    checker = workloads.Checker(small)
    checker.check(_corrupt(clean, "mc", 0, "mse_emp_mean", rows[0]["mse_emp_mean"] + 0.2))
    assert any("disagrees with theory" in p for p in checker.problems)


def _traced(workload):
    tr = tracer.Tracer()
    with tr.installed():
        result = workload.run_pass()
    return tr, result


def test_counts_repeat_exactly_across_traced_runs(small):
    first, _ = _traced(small)
    second, _ = _traced(small)
    a, b = first.layer_metrics(), second.layer_metrics()
    counts = [k for k, v in a.items() if isinstance(v, int)]
    assert "predictor.objective_D.evals" in counts
    assert "simulator.generate_instance.calls" in counts
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["predictor.objective_D.evals"] > 0
    assert a["simulator.generate_instance.calls"] == 6
    assert a["simulator.instance_reuse"] == pytest.approx(0.5)


def test_tracer_restores_the_package(small):
    before = [getattr(m, a) for m, a, _ in tracer.SPAN_BOUNDARIES + tracer.COUNTED_BOUNDARIES]
    _traced(small)
    after = [getattr(m, a) for m, a, _ in tracer.SPAN_BOUNDARIES + tracer.COUNTED_BOUNDARIES]
    assert before == after


def test_self_times_sum_to_traced_wall(small):
    tr, result = _traced(small)
    layer = tr.layer_self()
    top = tr.top_level_seconds()
    assert sum(layer.values()) == pytest.approx(top, rel=1e-9)
    assert all(v > 0.0 for v in layer.values()), layer
    # what lies outside the outermost calls is the workload's own loop
    assert 0.0 <= result.wall - top <= 0.02 * result.wall + 2e-3


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180, check=False,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_declared_metrics(trace):
    proc = _run(ROOT, "--workload", "mc-large-n", "--seed", "1", "--seconds", "0",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["per_layer" if trace == "1" else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()}


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "--workload", "theory-sweep", "--seed", "0", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
