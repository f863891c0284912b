"""Compare a parent commit with the working tree: benchmark pairs, CSVs and stress totals.

Run from the repository root:

    python3 scripts/compare.py --parent HEAD~1 --pairs 10 --seeds 0,7 --topic finisher

The parent side is `git archive REF` extracted into a temporary directory
(an archive, not a worktree, so the repository's .git is left as it was);
the change side is the working tree.  For each seed of `--seeds` and each
workload of BENCHMARK.json the script runs each side's own
`perfbench/run.py --trace 0` in pairs, alternating which side goes first,
and reports, keyed "<workload> seed <s>", per end-to-end metric both
sides' values, medians and quartiles, the change's wins (ties count for
neither) and whether the change is worse than the parent's median by more
than the metric's bound.  It then writes six CSVs with each side's CLI and
compares them byte for byte: fig-1 theory, the delta = 2 theory sweep on
fig 1's lambdas, fig-2 `--mode both --n 256 --trials 50` at seeds 0 and 7,
and the n = 1,024, lambda = 0.41 simulate run at seeds 0 and 7.  Last it
runs both sides' `tests/stress_lasso.py` and `tests/stress_saddle.py`,
keeps their printed totals and compares them line by line.  Everything
goes to BENCH_<topic>.json at the repository root.  When perfbench/ or
BENCHMARK.json differ between the sides, the two sides run different
harnesses; the script says so on stderr and in the file.  Every process
runs with one BLAS thread, as perfbench/run.py sets for itself, because the
BLAS thread count moves the Monte Carlo's last bits.  The script needs no
network.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIG2_LARGE = ["--delta", "0.8", "--kappa", "0.1", "--eps2", "0.2", "--snr", "0.5",
              "--lambda-list", "0.41", "--mode", "simulate", "--n", "1024", "--trials", "16"]
CSVS = {
    "fig1_theory": ["--reproduce-fig", "1", "--mode", "theory"],
    # the theory-sweep benchmark's delta = 2 grid: fig 1's 60 lambdas
    "delta2_theory": ["--delta", "2.0", "--kappa", "0.1", "--eps2", "0.5", "--snr", "0.5",
                      "--lambda-list", ",".join(repr(round(0.001 + 0.1 * i, 3)) for i in range(60)),
                      "--mode", "theory"],
    "fig2_n256_seed0": ["--reproduce-fig", "2", "--mode", "both", "--n", "256",
                        "--trials", "50", "--seed", "0"],
    "fig2_n256_seed7": ["--reproduce-fig", "2", "--mode", "both", "--n", "256",
                        "--trials", "50", "--seed", "7"],
    "large_n1024_seed0": FIG2_LARGE + ["--seed", "0"],
    "large_n1024_seed7": FIG2_LARGE + ["--seed", "7"],
}
STRESS = ("tests/stress_lasso.py", "tests/stress_saddle.py")
ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
       "MKL_NUM_THREADS": "1"}


def _seeds(text: str) -> tuple[int, ...]:
    seeds = tuple(int(s) for s in text.split(","))
    if any(s < 0 for s in seeds) or len(set(seeds)) != len(seeds):
        raise argparse.ArgumentTypeError(f"seeds must be distinct and nonnegative, got {text}")
    return seeds


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--parent", required=True, help="git revision of the parent side")
    p.add_argument("--pairs", type=int, required=True, help="benchmark pairs per workload")
    p.add_argument("--topic", required=True, help="names the output, BENCH_<topic>.json")
    p.add_argument("--seeds", type=_seeds, default=(0,),
                   help="comma-separated workload seeds, e.g. 0,7 (default 0)")
    return p.parse_args(argv)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.rstrip("\n")


def extract(sha: str, dest: Path) -> None:
    """The tree of commit `sha`, written into `dest` by `git archive | tar -x`."""
    dest.mkdir()
    archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT, stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(dest)], stdin=archive.stdout, check=False)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        raise RuntimeError(f"could not extract {sha} into {dest}")


def bench(side: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` of `side`: its result line, its details line
    under "detail", and its exit status under "status"."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=side, capture_output=True, text=True, env=ENV, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"status": proc.returncode, "correct": False, "metrics": {}, "detail": {},
                "stderr": proc.stderr[-2000:]}
    return {**json.loads(lines[-1]), "detail": json.loads(lines[-2]), "status": 0}


def _quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, med, q3]


def summarize(runs: dict, declared: list[dict]) -> dict:
    """Per metric: both sides' values, quartiles, the change's wins and the bound check."""
    out = {"pairs": len(runs["parent"]),
           "all_correct": all(r["correct"] for side in runs.values() for r in side)}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [r["metrics"][name]["value"] for r in runs[side]
                         if name in r["metrics"]] for side in runs}
        if len(values["parent"]) != out["pairs"] or len(values["change"]) != out["pairs"]:
            out[name] = {"error": "missing from some runs"}
            continue
        parent, change = values["parent"], values["change"]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        pq, cq = _quartiles(parent), _quartiles(change)
        worse = (cq[1] - pq[1]) / pq[1] if lower else (pq[1] - cq[1]) / pq[1]
        out[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "parent_q1_med_q3": pq, "change_q1_med_q3": cq,
            "change_over_parent": cq[1] / pq[1],
            "change_wins": wins,
            # the gain rule: nine tenths of the pairs, and a median shift
            # larger than the parent's interquartile distance
            "gain": wins >= 0.9 * len(parent) and -worse * pq[1] > pq[2] - pq[0],
            "bound": metric["bound"], "worse_than_bound": worse > metric["bound"],
            "parent_values": parent, "change_values": change,
        }
    return out


def write_csvs(side: Path, dest: Path) -> None:
    dest.mkdir()
    env = {**ENV, "PYTHONPATH": str(side / "src")}
    for name, argv in CSVS.items():
        subprocess.run([sys.executable, "-m", "lasso_mismatch.cli", *argv,
                        "--out", str(dest / f"{name}.csv")],
                       cwd=side, env=env, check=True, capture_output=True)


def first_difference(a: list[str], b: list[str]) -> dict:
    """The first line number at which the parent's lines `a` and the change's `b`
    differ, and each side's line there (None past its end)."""
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    return {"first_differing_line": i + 1,
            "parent": a[i] if i < len(a) else None,
            "change": b[i] if i < len(b) else None}


def compare_csvs(parent: Path, change: Path) -> dict:
    """Per CSV: "identical", or the first differing line of each side."""
    out = {}
    for name in CSVS:
        a, b = ((side / f"{name}.csv").read_bytes() for side in (parent, change))
        out[name] = "identical" if a == b else first_difference(
            a.decode().splitlines(), b.decode().splitlines())
    return out


def stress(side: Path) -> dict:
    """Each stress script's exit status, printed totals and seconds."""
    out = {}
    for script in STRESS:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, script], cwd=side, capture_output=True,
                              text=True, env={**ENV, "PYTHONPATH": str(side / "src")},
                              check=False)
        out[script] = {"status": proc.returncode, "seconds": time.perf_counter() - t0,
                       "output": proc.stdout.strip().splitlines()}
    return out


def compare_stress(parent: dict, change: dict) -> dict:
    """Per stress script: `identical`, true when both sides exit alike and print the same
    lines; otherwise also whether the exit status matches and the first differing line."""
    out = {}
    for script in STRESS:
        a, b = parent[script], change[script]
        same_status = a["status"] == b["status"]
        out[script] = {"identical": same_status and a["output"] == b["output"]}
        if not out[script]["identical"]:
            out[script].update(same_status=same_status,
                               **first_difference(a["output"], b["output"]))
    return out


def main(argv=None) -> int:
    args = _args(argv)
    if args.pairs < 1:
        print("error: --pairs must be at least 1", file=sys.stderr)
        return 2
    started = time.perf_counter()
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench_spec["run_seconds"]
    sha = _git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    harness_differs = subprocess.run(
        ["git", "diff", "--quiet", sha, "--", *bench_spec["paths"], "BENCHMARK.json"],
        cwd=ROOT, check=False).returncode != 0
    if harness_differs:
        print(f"warning: {', '.join(bench_spec['paths'])} or BENCHMARK.json differ between "
              f"{args.parent} and the working tree, so the sides run different harnesses",
              file=sys.stderr)
    result = {"topic": args.topic, "parent": {"ref": args.parent, "commit": sha},
              "change": {"tree": "working tree", "head": _git("rev-parse", "HEAD"),
                         "dirty_paths": _git("status", "--porcelain").splitlines()},
              "harness_differs": harness_differs,
              "command": (f"perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                          f"--trace 0 for S in {','.join(map(str, args.seeds))}, parent and "
                          f"change alternating which runs first, one BLAS thread")}
    with tempfile.TemporaryDirectory(prefix="compare-") as tmp:
        parent = Path(tmp) / "parent"
        extract(sha, parent)
        sides = {"parent": parent, "change": ROOT}
        benchmark, env = {}, None
        for seed in args.seeds:
            for workload in (w["name"] for w in bench_spec["workloads"]):
                key = f"{workload} seed {seed}"
                runs = {"parent": [], "change": []}
                for i in range(args.pairs):
                    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                    for side in order:
                        run = bench(sides[side], workload, seed, seconds)
                        runs[side].append(run)
                        if side == "change" and env is None and run["detail"]:
                            env = {k: v for k, v in run["detail"]["env"].items()
                                   if k not in ("commit", "seed", "traced")}
                    print(f"{key} pair {i + 1}/{args.pairs}: " + ", ".join(
                        f"{side} wall_s {runs[side][-1]['metrics'].get('wall_s', {}).get('value')}"
                        for side in order), file=sys.stderr)
                benchmark[key] = summarize(runs, bench_spec["end_to_end"])
        result["env"] = env or {"python": platform.python_version(), "nproc": os.cpu_count()}
        result["benchmark"] = benchmark
        for side, path in sides.items():
            write_csvs(path, Path(tmp) / f"csv-{side}")
        result["csvs"] = compare_csvs(Path(tmp) / "csv-parent", Path(tmp) / "csv-change")
        result["stress"] = {side: stress(path) for side, path in sides.items()}
        result["stress_compared"] = compare_stress(result["stress"]["parent"],
                                                   result["stress"]["change"])
    result["seconds"] = time.perf_counter() - started
    out = ROOT / f"BENCH_{args.topic}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {out.name} in {result['seconds']:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
