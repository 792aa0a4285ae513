"""Figures 17-22: the SPDK kernel-bypass stack (paper Section VI-A/B)."""

from __future__ import annotations

from typing import Tuple

from repro.core.display import KB, PATTERN_LABELS, PATTERNS
from repro.core.figures_completion import _sync_sweep
from repro.core.metrics import FigureResult, Series
from repro.host.accounting import ExecMode
from repro.ssd.registry import DeviceKind

BLOCK_SIZES = (4096, 8192, 16384, 32768)
BIG_BLOCK_SIZES = (65536, 131072, 262144, 524288, 1048576)

SPDK_VS_INT = (("SPDK", "poll", "spdk"), ("Kernel Interrupt", "interrupt", "kernel"))


def _spdk_latency_fig(figure_id: str, device: DeviceKind, io_count: int,
                      block_sizes: Tuple[int, ...]):
    cells = [
        (device.value, rw, bs, method, stack)
        for rw in PATTERNS
        for _label, method, stack in SPDK_VS_INT
        for bs in block_sizes
    ]
    data = _sync_sweep(figure_id, cells, io_count)
    series = []
    for rw in PATTERNS:
        for label, method, stack in SPDK_VS_INT:
            ys = [
                data[(device.value, rw, bs, method, stack)].latency.mean_us
                for bs in block_sizes
            ]
            series.append(
                Series.from_points(
                    f"{PATTERN_LABELS[rw]} {label}",
                    [KB[bs] for bs in block_sizes],
                    ys,
                    "us",
                )
            )
    return FigureResult(
        figure_id=figure_id,
        title=f"SPDK vs kernel interrupt latency — {device.value.upper()} SSD",
        x_label="block size",
        y_label="avg latency (us)",
        series=tuple(series),
        notes=f"QD1, {io_count} I/Os per point",
    )


def fig17(io_count: int = 1500, block_sizes: Tuple[int, ...] = BLOCK_SIZES):
    """SPDK vs. interrupt on the NVMe SSD: no meaningful win (Fig. 17)."""
    return _spdk_latency_fig("fig17", DeviceKind.NVME, io_count, tuple(block_sizes))


def fig18(io_count: int = 1500, block_sizes: Tuple[int, ...] = BLOCK_SIZES):
    """SPDK vs. interrupt on the ULL SSD: kernel bypass pays off (Fig. 18)."""
    return _spdk_latency_fig("fig18", DeviceKind.ULL, io_count, tuple(block_sizes))


def fig19(io_count: int = 400, block_sizes: Tuple[int, ...] = BIG_BLOCK_SIZES):
    """Big requests: SPDK's advantage vanishes (Fig. 19)."""
    return _spdk_latency_fig("fig19", DeviceKind.ULL, io_count, tuple(block_sizes))


def fig20(io_count: int = 1200, block_sizes: Tuple[int, ...] = BLOCK_SIZES):
    """CPU utilization: SPDK owns the whole core (Fig. 20)."""
    cells = [
        ("ull", rw, bs, method, stack)
        for rw in PATTERNS
        for _label, method, stack in SPDK_VS_INT
        for bs in block_sizes
    ]
    data = _sync_sweep("fig20", cells, io_count)
    series = []
    for rw in PATTERNS:
        for label, method, stack in SPDK_VS_INT:
            for mode in (ExecMode.USER, ExecMode.KERNEL):
                ys = [
                    100.0
                    * data[("ull", rw, bs, method, stack)].cpu_utilization(mode)
                    for bs in block_sizes
                ]
                series.append(
                    Series.from_points(
                        f"{PATTERN_LABELS[rw]} {label} {mode.value}",
                        [KB[bs] for bs in block_sizes],
                        ys,
                        "%",
                    )
                )
    return FigureResult(
        figure_id="fig20",
        title="CPU utilization: SPDK vs kernel interrupt (ULL)",
        x_label="block size",
        y_label="CPU utilization (%)",
        series=tuple(series),
    )


def fig21(io_count: int = 1200, block_sizes: Tuple[int, ...] = BLOCK_SIZES):
    """SPDK memory instructions, normalized to the interrupt path (Fig. 21)."""
    cells = [
        ("ull", rw, bs, method, stack)
        for rw in PATTERNS
        for bs in block_sizes
        for method, stack in (("poll", "spdk"), ("interrupt", "kernel"))
    ]
    data = _sync_sweep("fig21", cells, io_count)
    series = []
    for rw in PATTERNS:
        loads, stores = [], []
        for bs in block_sizes:
            spdk = data[("ull", rw, bs, "poll", "spdk")]
            interrupt = data[("ull", rw, bs, "interrupt", "kernel")]
            loads.append(
                spdk.accounting.total_loads() / interrupt.accounting.total_loads()
            )
            stores.append(
                spdk.accounting.total_stores() / interrupt.accounting.total_stores()
            )
        xs = [KB[bs] for bs in block_sizes]
        series.append(
            Series.from_points(f"{PATTERN_LABELS[rw]} Load", xs, loads, "x")
        )
        series.append(
            Series.from_points(f"{PATTERN_LABELS[rw]} Store", xs, stores, "x")
        )
    return FigureResult(
        figure_id="fig21",
        title="SPDK memory instructions normalized to interrupt (ULL)",
        x_label="block size",
        y_label="normalized count (x interrupt)",
        series=tuple(series),
    )


# ----------------------------------------------------------------------
# Figure 22: per-function load/store breakdowns
# ----------------------------------------------------------------------
def _fig22(figure_id: str, title: str, stack: str, functions, io_count: int):
    cells = [("ull", rw, 4096, "poll", stack) for rw in PATTERNS]
    data = _sync_sweep(figure_id, cells, io_count)
    series = []
    for function in functions + ("others",):
        xs, ys = [], []
        for rw in PATTERNS:
            result = data[("ull", rw, 4096, "poll", stack)]
            load_share = result.accounting.load_share_by_function()
            store_share = result.accounting.store_share_by_function()
            for kind, shares in (("LD", load_share), ("ST", store_share)):
                xs.append(f"{PATTERN_LABELS[rw]}-{kind}")
                if function == "others":
                    covered = sum(shares.get(f, 0.0) for f in functions)
                    ys.append(100.0 * (1.0 - covered))
                else:
                    ys.append(100.0 * shares.get(function, 0.0))
        series.append(Series.from_points(function, xs, ys, "%"))
    return FigureResult(
        figure_id=figure_id,
        title=title,
        x_label="pattern-instruction",
        y_label="% of instructions",
        series=tuple(series),
    )


def fig22a(io_count: int = 1200):
    """Kernel polling: which functions issue the memory traffic (Fig. 22a)."""
    return _fig22(
        "fig22a",
        "Load/store breakdown by function — kernel polling (ULL, 4KB)",
        "kernel",
        ("blk_mq_poll", "nvme_poll"),
        io_count,
    )


def fig22b(io_count: int = 1200):
    """SPDK: which functions issue the memory traffic (Fig. 22b)."""
    return _fig22(
        "fig22b",
        "Load/store breakdown by function — SPDK (ULL, 4KB)",
        "spdk",
        (
            "spdk_nvme_qpair_process_completions",
            "nvme_pcie_qpair_process_completions",
            "nvme_qpair_check_enabled",
        ),
        io_count,
    )
