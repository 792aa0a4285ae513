"""One fresh process running one repetition of one workload.

Started by ``run.py``; prints one JSON object on its last stdout line.

Modes:

* ``setup``  -- imports, builds and preconditions every leg, then exits
  before the first I/O (a set-up time probe);
* ``run``    -- untraced: also runs every leg, timing blocks of
  consecutive completions;
* ``traced`` -- runs every leg with the span tracer installed, then
  writes the spans (gzipped JSONL) and the per-layer table to ``out/``.

``--spawned-ns`` is the parent's ``time.monotonic_ns()`` just before it
started this process, so set-up time counts interpreter start-up too.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.obs.core import Observability  # noqa: E402
from repro.sim import engine as sim_engine  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.workloads.engines import MetricsCollector  # noqa: E402
from repro.workloads.runner import run_job  # noqa: E402

import calibrate  # noqa: E402
import legs as legs_mod  # noqa: E402
import spans  # noqa: E402


class BlockClock:
    """Times blocks of ``block_ios`` consecutive completions.

    After every ``every_blocks`` blocks it runs one host-speed
    calibration slice (``calibrate.py``); slices fall between blocks, so
    neither the blocks nor the I/O phase's host time include them.
    """

    def __init__(self, block_ios: int, every_blocks: int,
                 calibrator: calibrate.Calibrator) -> None:
        self.block_ios = block_ios
        self.every_blocks = every_blocks
        self.calibrator = calibrator
        self.blocks_ns: list = []
        self.slices_ns: list = []
        #: Host time spent calibrating, slice bookkeeping included.
        self.paused_ns = 0
        self._count = 0
        self._block_start = 0

    def start(self) -> None:
        self._count = 0
        self._block_start = time.perf_counter_ns()

    def tick(self) -> None:
        self._count += 1
        if self._count < self.block_ios:
            return
        now = time.perf_counter_ns()
        self.blocks_ns.append(now - self._block_start)
        self._count = 0
        if len(self.blocks_ns) % self.every_blocks == 0:
            self.slices_ns.append(self.calibrator.slice_ns())
            resumed = time.perf_counter_ns()
            self.paused_ns += resumed - now
            now = resumed
        self._block_start = now

    def install(self) -> None:
        """Tick on every completion the job's metrics collector records."""
        original = MetricsCollector.record
        tick = self.tick

        def record(self, *args, **kwargs):  # type: ignore[no-untyped-def]
            original(self, *args, **kwargs)
            tick()

        MetricsCollector.record = record  # type: ignore[method-assign]


def layer_table(rec: spans.SpanRecorder, io_ns: int, workload: str) -> str:
    totals = rec.layer_totals()
    total_s = io_ns / 1e9
    lines = [
        f"per-layer self time, traced run of {workload} "
        f"(I/O phase {total_s:.3f} s traced host time)",
        f"{'layer':<10} {'self_s':>9} {'share':>7} {'spans':>10} {'calls':>10}",
    ]
    attributed = 0.0
    for layer in spans.LAYERS:
        row = totals.get(layer, {"self_s": 0.0, "spans": 0, "calls": 0})
        attributed += row["self_s"]
        lines.append(
            f"{layer:<10} {row['self_s']:>9.4f} {row['self_s'] / total_s:>6.1%} "
            f"{int(row['spans']):>10} {int(row['calls']):>10}"
        )
    tracer_s = total_s - attributed
    lines.append(f"{'(tracer)':<10} {tracer_s:>9.4f} {tracer_s / total_s:>6.1%}")
    lines.append("")
    lines.append("top span names by self time")
    order = sorted(range(len(rec.names)), key=lambda n: -rec.self_ns[n])
    for nid in order[:20]:
        if rec.layers[nid] == "setup" or not rec.spans[nid]:
            continue
        lines.append(
            f"  {rec.self_ns[nid] / 1e9:>8.4f} s {rec.self_ns[nid] / io_ns:>6.1%} "
            f"{rec.spans[nid]:>9} spans  [{rec.layers[nid]}] {rec.names[nid]}"
        )
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "traced"), required=True)
    parser.add_argument("--spawned-ns", type=int, required=True)
    args = parser.parse_args()
    imported_ns = time.monotonic_ns()

    spec = json.loads((HERE / "spec.json").read_text())
    triples = legs_mod.make_legs(spec, args.workload, args.seed)
    traced = args.mode == "traced"
    rec = hook = clock = None
    if traced:
        rec = spans.SpanRecorder()
        spans.install(rec)
        hook = spans.DispatchSpans(rec)
    elif args.mode == "run":
        calibration = spec["calibration"]
        clock = BlockClock(spec["block_ios"], calibration["every_blocks"],
                           calibrate.Calibrator(calibration["iterations"]))
        clock.install()

    built = []
    for label, testbed, job in triples:
        obs = Observability(tracing=False, metrics=False, profile=hook) if traced else None
        sim = Simulator(obs=obs)
        device, host = testbed.build(sim)
        built.append((label, testbed, job, sim, device, host))
    first_io_ns = time.monotonic_ns()
    out = {
        "mode": args.mode,
        "import_s": (imported_ns - args.spawned_ns) / 1e9,
        "setup_s": (first_io_ns - args.spawned_ns) / 1e9,
    }
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    root = rec.name_id("run_job", "sim") if traced else -1
    leg_rows = {}
    events = 0
    io_ns = 0
    for label, testbed, job, sim, device, host in built:
        fio_job = testbed.job(job)
        events_before = sim_engine.events_executed_total
        started = time.perf_counter_ns()
        if clock is not None:
            clock.start()
        if traced:
            rec.open(root)
        result = run_job(sim, host, fio_job)
        if traced:
            rec.close()
        io_ns += time.perf_counter_ns() - started
        events += sim_engine.events_executed_total - events_before
        leg_rows[label] = legs_mod.leg_outputs(result, device)

    out.update(
        legs=leg_rows,
        model=legs_mod.model_of(leg_rows),
        problems=legs_mod.check_outputs(spec, args.workload, leg_rows),
        events=events,
        io_s=(io_ns - (clock.paused_ns if clock is not None else 0)) / 1e9,
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if clock is not None:
        out["blocks_ns"] = clock.blocks_ns
        out["slice_ns"] = statistics.mean(clock.slices_ns)
    if traced:
        out_dir = HERE / "out"
        out_dir.mkdir(parents=True, exist_ok=True)
        spans_path = out_dir / f"{args.workload}.spans.jsonl.gz"
        table_path = out_dir / f"{args.workload}.layers.txt"
        table = layer_table(rec, io_ns, args.workload)
        table_path.write_text(table)
        totals = rec.layer_totals()
        out.update(
            layers={k: v for k, v in totals.items()},
            counts={
                "kstack.calls": rec.calls_of(
                    "KernelStack.sync_io", "KernelStack.submit_async",
                    "KernelStack.complete_async"),
                "spdk.calls": rec.calls_of("SpdkStack.sync_io"),
                "nvme.submits": rec.calls_of("NvmeQueuePair.submit"),
                "ssd.read_units": rec.calls_of("SsdController.read_unit"),
                "ssd.write_units": rec.calls_of("SsdController.write_unit"),
                "power.observations": rec.calls_of(
                    "PowerMeter.observe_op", "PowerMeter.observe_transfer"),
                "ftl.writes": rec.calls_of(
                    "PageMappedFtl.write", "PageMappedFtl.write_to_die"),
                "ftl.relocations": rec.calls_of("PageMappedFtl.relocate"),
                "ftl.gc_plans": rec.calls_of("PageMappedFtl.plan_gc"),
                "flash.reads": rec.calls_of("FlashDie.read"),
                "flash.programs": rec.calls_of("FlashDie.program"),
                "flash.erases": rec.calls_of("FlashDie.erase"),
                "host.charges": rec.calls_of("CpuAccounting.charge"),
            },
            precondition_s=totals.get("setup", {"self_s": 0.0})["self_s"],
            pending_peak=hook.pending_peak,
            table=table,
            table_path=os.path.relpath(table_path, ROOT),
            spans_path=os.path.relpath(spans_path, ROOT),
            span_count=rec.write_jsonl(spans_path),
        )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
