"""Repeat the benchmark over several seeds and summarize each metric.

Usage, from the root of a checkout::

    python3 perfbench/baseline.py --runs 10 --out perfbench/baseline.json

For every workload it makes ``--runs`` timed runs (``--trace 0``) with
seeds 1, 2, ..., and one traced run (``--trace 1``) with seed 1.  Per
end-to-end metric it reports the values, their median and quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
inter-quartile distance as a share of the median, next to the metric's
bound from ``BENCHMARK.json``.  It also records each run's exact
``sim.events`` and simulated outputs, the same summary of the host times
before scaling to the reference host speed, and the traced run's
per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.monotonic()
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - started
    result["seed"] = seed
    # The human-readable lines carry the exact simulated outputs and the
    # host times before scaling to the reference host speed.
    result["model"] = {}
    result["unscaled"] = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) >= 2 and (parts[0] == "sim.events" or parts[0].startswith("model.")):
            result["model"][parts[0]] = json.loads(parts[1])
        if len(parts) >= 5 and parts[3] == "(unscaled":
            result["unscaled"][parts[0]] = float(parts[4].rstrip(")"))
    return result


def summarize(values: List[float], bound: float) -> Dict[str, Any]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": spread, "bound": bound, "spread_within_third_of_bound": spread < bound / 3}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report: Dict[str, Any] = {
        "host": {"machine": platform.machine(), "python": platform.python_version(),
                 "cpus": os.cpu_count()},
        "run_seconds": seconds,
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        runs = []
        for seed in range(1, args.runs + 1):
            run = run_once(workload, seed, seconds, 0)
            runs.append(run)
            print(f"{workload} seed {seed}: correct={run['correct']} {run['wall_s']:.1f} s "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in run["metrics"].items()),
                  flush=True)
        entry: Dict[str, Any] = {
            "metrics": {name: summarize([r["metrics"][name]["value"] for r in runs], bound)
                        for name, bound in bounds.items()},
            "unscaled": {name: summarize([r["unscaled"][name] for r in runs], bounds[name])
                         for name in runs[0]["unscaled"]},
            "correct": all(r["correct"] for r in runs),
            "wall_s": [round(r["wall_s"], 2) for r in runs],
            "simulated": {str(r["seed"]): r["model"] for r in runs},
        }
        traced = run_once(workload, 1, seconds, 1)
        entry["traced"] = {"seed": 1, "correct": traced["correct"],
                           "wall_s": round(traced["wall_s"], 2),
                           "metrics": {k: v["value"] for k, v in traced["metrics"].items()}}
        report["workloads"][workload] = entry
        for name, row in entry["metrics"].items():
            flag = "ok" if row["spread_within_third_of_bound"] else "WIDE"
            unscaled = entry["unscaled"].get(name)
            extra = f"  (unscaled spread {unscaled['spread']:.3f})" if unscaled else ""
            print(f"  {name:<20} median {row['median']:.6g}  spread {row['spread']:.3f}"
                  f"  bound {row['bound']}  {flag}{extra}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
