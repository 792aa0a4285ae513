"""Simulator benchmark: run one workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload qd1_paths --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload, one fresh process per repetition,
until ``--seconds`` are spent (at least ``min_reps`` repetitions, see
``spec.json``), and reports the end-to-end metrics: host times scaled to
the reference host speed (``calibrate.py``), unscaled values beside.
``--trace 1`` runs the workload once untraced and once traced, with
the same inputs, and reports the per-layer metrics; the traced run's
spans and per-layer table go to ``perfbench/out/``.

Every run checks the simulated outputs: every I/O completes, the
workload's own invariants hold (see ``spec.json``), and every run of
the same inputs -- repetitions, traced and untraced -- yields the same
simulated statistics and sim event count, exactly.  The last stdout
line is one JSON object; the exit code is non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: A repetition may take no longer than this (the whole run must end
#: within 180 s).
WORKER_TIMEOUT_S = 150
#: No repetition starts once this much of the run has passed.
RUN_CAP_S = 120

E2E_UNITS = {
    "ios_per_s": "1/s",
    "host_us_per_io_p50": "us",
    "host_us_per_io_p99": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class WorkerFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, mode: str) -> Dict[str, Any]:
    """Run ``worker.py`` in a fresh process; return its JSON result."""
    spawned = time.monotonic_ns()
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--spawned-ns", str(spawned),
    ]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise WorkerFailed(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = (time.monotonic_ns() - spawned) / 1e9
    return result


def fingerprint(rep: Dict[str, Any]) -> str:
    """The simulated outputs that must repeat exactly for the same inputs."""
    return json.dumps({"legs": rep["legs"], "model": rep["model"], "events": rep["events"]},
                      sort_keys=True)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def io_totals(reps: List[Dict[str, Any]]) -> Dict[str, int]:
    requested = sum(leg["requested"] for rep in reps for leg in rep["legs"].values())
    completed = sum(leg["completed"] for rep in reps for leg in rep["legs"].values())
    return {"attempted": requested, "failed": requested - completed}


def consistency_problems(reps: List[Dict[str, Any]]) -> List[str]:
    problems = [f"{rep['mode']} #{i}: {p}" for i, rep in enumerate(reps) for p in rep["problems"]]
    prints = {fingerprint(rep) for rep in reps}
    if len(prints) != 1:
        problems.append(f"{len(prints)} different simulated outcomes across {len(reps)} runs "
                        "of the same inputs")
    return problems


def print_model(rep: Dict[str, Any]) -> None:
    print(f"sim.events {rep['events']} count (exact)")
    for name, value in rep["model"].items():
        print(f"{name} {value!r}")
    for label, leg in rep["legs"].items():
        print(f"  leg {label}: {leg['completed']}/{leg['requested']} I/Os, "
              f"sim mean {leg['mean_ns'] / 1e3:.3f} us, p99 {leg['p99_ns'] / 1e3:.3f} us, "
              f"gc {leg['gc_events']}, WA {leg['write_amplification']:.4f}")


def host_metrics(spec: Dict[str, Any], reps: List[Dict[str, Any]],
                 scaled: bool) -> Dict[str, float]:
    """Throughput and per-I/O host time, medians over repetitions; with
    ``scaled``, each repetition's host times are divided by its
    host-speed factor."""
    reference = spec["calibration"]["reference_slice_ns"]
    rates, p50s, p99s = [], [], []
    for rep in reps:
        factor = rep["slice_ns"] / reference if scaled else 1.0
        blocks_us = [ns / factor / spec["block_ios"] / 1e3 for ns in rep["blocks_ns"]]
        completed = sum(leg["completed"] for leg in rep["legs"].values())
        rates.append(completed * factor / rep["io_s"])
        p50s.append(statistics.median(blocks_us))
        p99s.append(percentile(blocks_us, 0.99))
    return {
        "ios_per_s": statistics.median(rates),
        "host_us_per_io_p50": statistics.median(p50s),
        "host_us_per_io_p99": statistics.median(p99s),
    }


def timed(spec: Dict[str, Any], workload: str, seed: int, seconds: int) -> Dict[str, Any]:
    started = time.monotonic()
    setups = [spawn(workload, seed, "setup")["setup_s"] for _ in range(spec["setup_probes"])]
    reps: List[Dict[str, Any]] = []
    while True:
        rep = spawn(workload, seed, "run")
        reps.append(rep)
        setups.append(rep["setup_s"])
        elapsed = time.monotonic() - started
        rep_s = statistics.median(r["wall_s"] for r in reps)
        if len(reps) >= spec["min_reps"] and elapsed + rep_s / 2 > seconds:
            break
        if elapsed + rep_s > RUN_CAP_S:
            break

    metrics = host_metrics(spec, reps, scaled=True)
    raw = host_metrics(spec, reps, scaled=False)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = statistics.median(rep["rss_kb"] for rep in reps) / 1024
    reference = spec["calibration"]["reference_slice_ns"]
    blocks = min(len(rep["blocks_ns"]) for rep in reps)
    print(f"workload {workload} seed {seed}: {len(reps)} repetitions, {len(setups)} set-ups, "
          f"at least {blocks} blocks of {spec['block_ios']} I/Os per repetition, "
          f"{time.monotonic() - started:.1f} s")
    print("host-speed factors " + " ".join(
        f"{rep['slice_ns'] / reference:.3f}" for rep in reps))
    for name, value in metrics.items():
        unscaled = f"  (unscaled {raw[name]!r})" if name in raw else ""
        print(f"{name} {value!r} {E2E_UNITS[name]}{unscaled}")
    print_model(reps[0])
    problems = consistency_problems(reps)
    if blocks < spec["min_blocks_per_rep"]:
        problems.append(f"a repetition has {blocks} timing blocks, "
                        f"fewer than {spec['min_blocks_per_rep']}")
    return {"problems": problems, **io_totals(reps),
            "metrics": {n: {"value": v, "unit": E2E_UNITS[n]} for n, v in metrics.items()}}


def traced(spec: Dict[str, Any], workload: str, seed: int) -> Dict[str, Any]:
    plain = spawn(workload, seed, "run")
    rep = spawn(workload, seed, "traced")
    layers = rep["layers"]
    legs = rep["legs"].values()
    completed = sum(leg["completed"] for leg in legs)
    writes = sum(leg["writes"] for leg in legs)
    lookups = sum(leg["cache_lookups"] for leg in legs)
    totals = io_totals([plain, rep])
    values: Dict[str, float] = {
        "sim.events": rep["events"],
        "sim.events_per_io": rep["events"] / completed,
        "sim.host_ns_per_event": (plain["io_s"] * 1e9 / plain["events"]
                                  * spec["calibration"]["reference_slice_ns"] / plain["slice_ns"]),
        "sim.pending_peak": rep["pending_peak"],
    }
    units = per_layer_units()
    for name in units:
        if name.endswith(".self_s"):
            values[name] = layers.get(name.split(".")[0], {"self_s": 0.0})["self_s"]
    values.update(rep["counts"])
    values["ssd.read_cache_lookups"] = lookups
    values["ssd.read_cache_hit_ratio"] = (
        sum(leg["cache_hits"] for leg in legs) / lookups if lookups else 0.0)
    values["ftl.write_amplification"] = (
        sum(leg["write_amplification"] * leg["writes"] for leg in legs) / writes
        if writes else 1.0)
    values["setup.import_s"] = rep["import_s"]
    values["setup.precondition_s"] = rep["precondition_s"]
    values["setup.build_s"] = rep["setup_s"] - rep["import_s"] - rep["precondition_s"]
    values["trace.overhead"] = rep["io_s"] / plain["io_s"]
    values["io_fail_ratio"] = totals["failed"] / totals["attempted"]
    values.update(rep["model"])

    print(rep["table"], end="")
    print(f"spans: {rep['span_count']} written to {rep['spans_path']}; "
          f"table in {rep['table_path']}")
    print(f"traced I/O phase {rep['io_s']:.3f} s, untraced {plain['io_s']:.3f} s")
    print_model(rep)
    for name, value in values.items():
        print(f"{name} {value!r} {units[name]}")
    return {"problems": consistency_problems([plain, rep]), **totals,
            "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()}}


def per_layer_units() -> Dict[str, str]:
    """Per-layer metric units, from the benchmark definition."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {row["name"]: row["unit"] for row in bench["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "api.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((HERE / "spec.json").read_text())
    if args.workload not in spec["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(spec['workloads'])}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            result = traced(spec, args.workload, args.seed)
        else:
            result = timed(spec, args.workload, args.seed, args.seconds)
    except (WorkerFailed, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    problems = result.pop("problems")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    correct = not problems and result["failed"] == 0
    print(json.dumps({"correct": correct, **result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
