"""Workload construction, simulated-output extraction and output checks.

A workload is one or more *legs*: a :class:`repro.api.Testbed` plus a
:class:`repro.api.JobConfig`, run one after another in one process.
Everything here goes through ``repro.api`` and the job runner it wraps,
never through the sweep engine, so no on-disk cache can serve a result.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.api import JobConfig, Testbed

def make_legs(spec: Dict[str, Any], workload: str, seed: int) -> List[Tuple[str, Testbed, JobConfig]]:
    """The (label, testbed, job) triples of ``workload`` at pattern ``seed``."""
    wl = spec["workloads"][workload]
    seeds = spec["fixed_seeds"]
    legs = []
    for leg in wl["legs"]:
        testbed = Testbed(
            device=wl["device"],
            stack=leg["stack"],
            completion=leg["completion"],
            precondition=1.0,
            device_seed=seeds["device_seed"],
            stack_seed=seeds["stack_seed"],
        )
        job = JobConfig(
            rw=wl["rw"],
            engine=wl["engine"],
            block_size=wl["block_size"],
            iodepth=wl["iodepth"],
            io_count=wl["io_count_per_leg"],
            write_fraction=wl.get("write_fraction", 0.5),
            seed=seed,
            capture_timeseries=wl["capture_timeseries"],
        )
        legs.append((leg["label"], testbed, job))
    return legs


def leg_outputs(result: Any, device: Any) -> Dict[str, Any]:
    """The simulated statistics of one finished leg (exact values)."""
    cache = device.controller.read_cache
    series = result.timeseries
    return {
        "requested": result.job.io_count,
        "completed": result.latency.count,
        "reads": result.read_latency.count,
        "writes": result.write_latency.count,
        "bytes": result.bytes_done,
        "mean_ns": result.latency.mean_ns,
        "p99_ns": result.latency.p99_ns,
        "duration_ns": result.duration_ns,
        "gc_events": len(device.stats.gc_events),
        "avg_power_w": result.avg_power_w,
        "write_amplification": device.ftl.write_amplification(),
        "cache_hits": cache.hits,
        "cache_lookups": cache.hits + cache.misses,
        "series_points": len(series) if series is not None else 0,
    }


def model_of(legs: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    """Combine per-leg outputs into the ``model.*`` metrics."""
    rows = list(legs.values())
    count = sum(r["completed"] for r in rows)
    duration = sum(r["duration_ns"] for r in rows)
    return {
        "model.sim_mean_us": sum(r["mean_ns"] * r["completed"] for r in rows) / count / 1e3,
        "model.sim_p99_us": max(r["p99_ns"] for r in rows) / 1e3,
        "model.sim_duration_ms": duration / 1e6,
        "model.gc_events": sum(r["gc_events"] for r in rows),
        "model.avg_power_w": sum(r["avg_power_w"] * r["duration_ns"] for r in rows) / duration,
    }


def check_outputs(spec: Dict[str, Any], workload: str, legs: Dict[str, Dict[str, Any]]) -> List[str]:
    """Problems with the simulated outputs of one repetition (empty if none)."""
    wl = spec["workloads"][workload]
    problems = []
    for label, r in legs.items():
        if r["completed"] != r["requested"]:
            problems.append(f"{label}: {r['completed']} of {r['requested']} I/Os completed")
        if r["bytes"] != r["completed"] * wl["block_size"]:
            problems.append(f"{label}: {r['bytes']} bytes for {r['completed']} I/Os")
        if wl["capture_timeseries"] and r["series_points"] != r["completed"]:
            problems.append(f"{label}: {r['series_points']} time-series points")
    if workload == "qd1_paths":
        mean = {label: r["mean_ns"] for label, r in legs.items()}
        if not mean["spdk"] < mean["kernel-poll"] < mean["kernel-interrupt"]:
            problems.append(f"QD1 latency order broken: {mean}")
        if not mean["kernel-hybrid"] < mean["kernel-interrupt"]:
            problems.append(f"hybrid poll not faster than interrupt: {mean}")
        if any(r["gc_events"] for r in legs.values()):
            problems.append("GC ran on a read-only workload")
    elif workload == "gc_overwrite":
        r = legs["kernel-interrupt"]
        if r["gc_events"] < 100:
            problems.append(f"only {r['gc_events']} GC events")
        if not r["write_amplification"] > 1.0:
            problems.append(f"write amplification {r['write_amplification']}")
        if r["reads"]:
            problems.append(f"{r['reads']} reads on a write-only workload")
    elif workload == "nvme_deep_mixed":
        r = legs["kernel-interrupt"]
        occupancy = r["mean_ns"] * r["completed"] / r["duration_ns"]
        if abs(occupancy / wl["iodepth"] - 1.0) > 0.02:
            problems.append(f"Little's law: mean occupancy {occupancy:.2f} at QD{wl['iodepth']}")
        share = r["writes"] / r["completed"] if r["completed"] else 0.0
        if not 0.45 <= share <= 0.55:
            problems.append(f"write share {share:.3f}")
    return problems
