"""Run the benchmark over several seeds and summarise it, or write the baseline.

Run from the repository root:

    python3 perfbench/collect.py --seeds 0            # every workload once, seed 0
    python3 perfbench/collect.py --seeds 0-9 --trace-seed 0 --out perfbench/baseline.json

Each run is a fresh `run.py` process.  Runs go seed by seed, each seed over
every workload, so slow spells on a shared machine fall on all workloads
alike.  For each end-to-end metric the summary gives the median, the
quartiles (`statistics.quantiles(values, n=4)`) and the spread, the
interquartile distance as a share of the median, next to the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One fresh benchmark process; returns (details line, result line)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="ascii"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", default="0", help="seeds, as in 0-9 or 0,3,5")
    p.add_argument("--trace-seed", type=int, default=None,
                   help="also make one traced run per workload at this seed")
    p.add_argument("--out", default=None, help="write the summary as JSON here")
    args = p.parse_args(argv)
    names = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {name: [] for name in names}
    env = None
    for seed in _seeds(args.seeds):
        for name in names:
            detail, result = run_once(name, seed, seconds, 0)
            env = env or detail["env"]
            runs[name].append(result)
            shown = "  ".join(
                f"{k}={m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items())
            print(f"{name:13s} seed {seed:3d}  correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}  {shown}", flush=True)

    summary = {"env": env, "run_seconds": seconds, "seeds": args.seeds, "workloads": {}}
    for name in names:
        entry = {
            "correct_all": all(r["correct"] for r in runs[name]),
            "attempted": sum(r["attempted"] for r in runs[name]),
            "failed": sum(r["failed"] for r in runs[name]),
            "end_to_end": {},
        }
        for metric, bound in bounds.items():
            s = summarise([r["metrics"][metric]["value"] for r in runs[name]])
            s["bound"] = bound
            entry["end_to_end"][metric] = s
            flag = "" if s["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"{name:13s} {metric:12s} median={s['median']:.6g} q1={s['q1']:.6g} "
                  f"q3={s['q3']:.6g} spread={s['spread']:.4f} bound={bound}{flag}")
        if args.trace_seed is not None:
            detail, result = run_once(name, args.trace_seed, seconds, 1)
            entry["traced"] = {"seed": args.trace_seed, "correct": result["correct"],
                               "passes": detail["passes"], "per_layer": result["metrics"]}
        summary["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="ascii")
    return 0 if all(e["correct_all"] for e in summary["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
