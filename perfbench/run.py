"""Benchmark of the lasso-mismatch package: one workload, one seed, one process.

Run from the repository root:

    python3 perfbench/run.py --workload theory-sweep --seed 0 --seconds 20 --trace 0

The run repeats passes of the workload until --seconds have elapsed (at
least one pass), checks every pass's outputs outside the timed region, and
prints as its last line one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  `wall_s` is the median pass time and `setup_s` the median
set-up time, both at the reference speed (see workloads.REF_SECONDS); the
raw times are in the details line.  With --trace 0 the metrics are the
end-to-end metrics; with --trace 1 the run alternates untraced and traced
passes and the metrics are the per-layer ones, plus the tracing overhead.
The line before it holds the environment and workload-specific details.
BLAS runs on one thread (set below, before numpy loads), because two BLAS
threads on a shared two-core machine made the large-n timings spread by a
factor of 1.7.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 16  # before the passes, and as many again after them


def _args(argv):
    p = argparse.ArgumentParser(description="Run one benchmark workload.")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(workload: str, seed: int, speed_probe, ref_seconds: float) -> list[tuple]:
    """Seconds from spawning a fresh interpreter until it has imported the
    package and parsed the workload's inputs, once per probe, each as
    (raw, at the reference speed).  Like a pass's calls, each spawn is
    bracketed by `speed_probe`, as importing is scalar Python work."""
    times = []
    for _ in range(SETUP_PROBES):
        before = speed_probe()
        t0 = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), workload, str(seed)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with exit status {proc.returncode}")
        times.append((elapsed, elapsed * ref_seconds / (0.5 * (before + speed_probe()))))
    return times


def _read(path, default="unknown"):
    try:
        return Path(path).read_text(encoding="ascii", errors="replace").strip()
    except OSError:
        return default


def _commit() -> str:
    head = _read(ROOT / ".git" / "HEAD", "")
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(ROOT / ".git" / ref, "")
        if not sha:
            for line in _read(ROOT / ".git" / "packed-refs", "").splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        head = sha
    return head or "unknown (not a git checkout)"


def _cpu() -> dict:
    model = "unknown"
    for line in _read("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{index}/size")
    return {"cpu_model": model, "l2_cache": caches.get("L2", "unknown"),
            "l3_cache": caches.get("L3", "unknown")}


def _blas() -> dict:
    import ctypes

    import numpy as np

    dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"numpy": np.__version__, "blas": f"{dep.get('name')} {dep.get('version')}",
            "blas_threads": threads if threads is not None
            else f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"}


def environment(seed: int, traced: bool) -> dict:
    return {"commit": _commit(), "seed": seed, "nproc": os.cpu_count(), **_cpu(),
            "python": platform.python_version(), **_blas(), "traced": traced}


def _median_metrics(per_pass: list[dict]) -> dict:
    """Median of each metric over passes, taken as one of the measured values."""
    return {k: statistics.median_low(m[k] for m in per_pass) for k in per_pass[0]}


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "lasso_mismatch" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracer
    import workloads

    wl = workloads.build(args.workload, args.seed)
    checker = workloads.Checker(wl, workloads.load_reference(wl))

    def setup_batch():
        return [] if args.trace else measure_setup(
            args.workload, args.seed, workloads.python_probe, workloads.REF_SECONDS)

    setup = setup_batch()

    passes, traced_passes, layer = [], [], []
    deadline = time.perf_counter() + max(args.seconds, 0.0)
    while True:
        result = wl.run_pass()
        checker.check(result)
        passes.append(result)
        if args.trace:
            tr = tracer.Tracer()
            with tr.installed():
                result = wl.run_pass()
            checker.check(result)
            traced_passes.append(result)
            layer.append(tr.layer_metrics())
        if time.perf_counter() >= deadline:
            break
    # a second batch after the passes, so that one slow spell cannot set the
    # whole run's set-up time
    setup += setup_batch()

    wall = statistics.median(p.wall_ref for p in passes)
    raw_wall = statistics.median(p.wall for p in passes)
    detail = {
        "workload": wl.name, "passes": len(passes),
        "pass_wall_s": [p.wall for p in passes], "pass_wall_ref_s": [p.wall_ref for p in passes],
        "raw_wall_s": raw_wall, "ref_scale": statistics.median(p.wall_ref / p.wall for p in passes),
        "fail_frac": checker.failed / checker.attempted, "problems": checker.problems,
        "env": environment(args.seed, bool(args.trace)),
    }
    if wl.trials_per_pass:
        detail["trials_per_s"] = wl.trials_per_pass / wall
    if wl.searches:
        detail["optlam_s"] = statistics.median(
            sum(p.times[q.label] for q in wl.searches) for p in passes)

    if args.trace:
        counts = [{k: v for k, v in m.items() if isinstance(v, int)} for m in layer]
        if any(c != counts[0] for c in counts):
            checker.problems.append("trace counts differ between traced passes")
        metrics = _median_metrics(layer)
        # both at the reference speed, so that host drift between passes cancels
        traced_wall = statistics.median(p.wall_ref for p in traced_passes)
        metrics.update({"trace.untraced_wall_s": wall, "trace.traced_wall_s": traced_wall,
                        "trace.overhead_s": traced_wall - wall})
    else:
        metrics = {
            "wall_s": wall,
            "setup_s": statistics.median(ref for _, ref in setup),
            "cells_per_s": wl.cells_per_pass / wall,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        detail["setup_s_raw"] = [raw for raw, _ in setup]
        detail["setup_s_ref"] = [ref for _, ref in setup]
    units = {m["name"]: m["unit"] for m in _declared("per_layer" if args.trace else "end_to_end")}
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not as declared")

    for name, value in metrics.items():
        print(f"{wl.name} {name} = {value:.6g} {units[name]}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({
        "correct": checker.failed == 0 and not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def _declared(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        return json.load(fh)[kind]


if __name__ == "__main__":
    sys.exit(main())
