"""Shared benchmark plumbing.

Every benchmark regenerates one paper table/figure, saves the rendered
rows under ``benchmarks/results/<figure_id>.txt`` plus a
machine-readable ``<figure_id>.json`` (so shape/perf trajectories can
be diffed across PRs), prints them (visible with ``pytest -s``), and
asserts the figure's headline shape.

The sweep engine the figures run on is configurable via environment
variables: ``REPRO_JOBS`` fans measurements out across worker
processes, ``REPRO_CACHE_DIR`` persists them on disk across benchmark
runs.
"""

from __future__ import annotations

import atexit
import json
import os
import pathlib

from repro.core import sweep
from repro.core.metrics import FigureResult
from repro.core.report import render_figure
from repro.perf import PerfSession, bench_filename, write_bench

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

if os.environ.get("REPRO_JOBS") or os.environ.get("REPRO_CACHE_DIR"):
    sweep.configure(
        jobs=int(os.environ.get("REPRO_JOBS", "1")),
        cache_dir=os.environ.get("REPRO_CACHE_DIR") or None,
    )

# Self-profiling: every window between emit() calls is booked to the
# figure just emitted, and the aggregate lands in
# benchmarks/results/BENCH_<date>.json (gitignored, like the per-figure
# JSON) when the benchmark process exits, so a run never litters the
# repo root.
_PERF = PerfSession()
_PERF_MARK = _PERF.mark()


@atexit.register
def _write_bench_aggregate() -> None:
    if not _PERF.records:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    path = write_bench(_PERF.to_doc(source="benchmarks"),
                       RESULTS_DIR / bench_filename())
    print(f"\nwrote benchmark timings to {path}")


def emit(result: FigureResult) -> FigureResult:
    """Persist and print a figure reproduction; returns it unchanged."""
    global _PERF_MARK
    _PERF_MARK = _PERF.lap(result.figure_id, _PERF_MARK)
    RESULTS_DIR.mkdir(exist_ok=True)
    text = render_figure(result)
    (RESULTS_DIR / f"{result.figure_id}.txt").write_text(text + "\n")
    (RESULTS_DIR / f"{result.figure_id}.json").write_text(
        json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    print()
    print(text)
    return result


def reduction(figure: FigureResult, better: str, worse: str, x) -> float:
    """Fractional latency reduction of ``better`` over ``worse`` at x."""
    return 1.0 - figure.find(*better.split()).value_at(x) / figure.find(
        *worse.split()
    ).value_at(x)
