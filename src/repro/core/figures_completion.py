"""Figures 9-16: I/O completion methods (paper Section V).

All experiments are synchronous (pvsync2) on one core, as in the paper.
Each figure declares its (pattern x variant x block size) grid as sweep
points; identical cells across figures (Figs. 9-16 share many runs)
collapse in the engine's memo and persistent cache.
"""

from __future__ import annotations

from typing import Tuple

from repro.core.display import KB, PATTERN_LABELS, PATTERNS
from repro.core.metrics import FigureResult, Series
from repro.core.runners import sync_point
from repro.core.sweep import sweep
from repro.host.accounting import ExecMode
from repro.ssd.registry import DeviceKind

BLOCK_SIZES = (4096, 8192, 16384, 32768)


def _sync_sweep(name: str, cells, io_count: int):
    """Run every unique (device, rw, block_size, method, stack) cell.

    Returns ``{cell: JobResult}``; cells may repeat (figures often pair
    a variant with its interrupt baseline per block size).
    """
    unique = tuple(dict.fromkeys(cells))
    points = [
        sync_point(
            device, rw, block_size=bs, method=method, stack=stack,
            io_count=io_count,
        )
        for device, rw, bs, method, stack in unique
    ]
    data = sweep(points, name=name)
    return {cell: data[cell].result for cell in unique}


def _latency_vs_bs(
    figure_id: str,
    title: str,
    device: DeviceKind,
    variants,
    io_count: int,
    block_sizes: Tuple[int, ...],
    patterns=PATTERNS,
    metric: str = "mean",
):
    """Generic grid: per pattern, one series per completion variant."""
    cells = [
        (device.value, rw, bs, method, stack)
        for rw in patterns
        for _label, method, stack in variants
        for bs in block_sizes
    ]
    data = _sync_sweep(figure_id, cells, io_count)
    series = []
    for rw in patterns:
        for label, method, stack in variants:
            ys = []
            for bs in block_sizes:
                summary = data[(device.value, rw, bs, method, stack)].latency
                ys.append(
                    summary.mean_us if metric == "mean" else summary.p99999_us
                )
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
        title=title,
        x_label="block size",
        y_label=("avg" if metric == "mean" else "99.999th") + " latency (us)",
        series=tuple(series),
        notes=f"pvsync2, {io_count} I/Os per point, {device.value.upper()} SSD",
    )


# ----------------------------------------------------------------------
# Figures 9 and 10: poll vs. interrupt latency
# ----------------------------------------------------------------------
POLL_VS_INT = (("Poll", "poll", "kernel"), ("Interrupt", "interrupt", "kernel"))


def fig09(io_count: int = 2000, block_sizes: Tuple[int, ...] = BLOCK_SIZES):
    """Interrupt vs. poll latency on the NVMe SSD (Fig. 9)."""
    return _latency_vs_bs(
        "fig09",
        "Latency comparison (interrupt vs poll) — NVMe SSD",
        DeviceKind.NVME,
        POLL_VS_INT,
        io_count,
        tuple(block_sizes),
    )


def fig10(io_count: int = 2000, block_sizes: Tuple[int, ...] = BLOCK_SIZES):
    """Interrupt vs. poll latency on the ULL SSD (Fig. 10)."""
    return _latency_vs_bs(
        "fig10",
        "Latency comparison (interrupt vs poll) — ULL SSD",
        DeviceKind.ULL,
        POLL_VS_INT,
        io_count,
        tuple(block_sizes),
    )


# ----------------------------------------------------------------------
# Figure 11: five-nines latency, poll vs. interrupt (ULL)
# ----------------------------------------------------------------------
def fig11(io_count: int = 25000, block_sizes: Tuple[int, ...] = BLOCK_SIZES):
    """Five-nines latency of the ULL SSD: polling's tail is worse (Fig. 11)."""
    panels = (("randread", "Reads"), ("randwrite", "Writes"))
    cells = [
        ("ull", rw, bs, method, stack)
        for rw, _panel in panels
        for _label, method, stack in POLL_VS_INT
        for bs in block_sizes
    ]
    data = _sync_sweep("fig11", cells, io_count)
    series = []
    for rw, panel in panels:
        for label, method, stack in POLL_VS_INT:
            ys = [
                data[("ull", rw, bs, method, stack)].latency.p99999_us
                for bs in block_sizes
            ]
            series.append(
                Series.from_points(
                    f"{panel} {label}", [KB[bs] for bs in block_sizes], ys, "us"
                )
            )
    return FigureResult(
        figure_id="fig11",
        title="99.999th latency of ULL SSD (interrupt vs poll)",
        x_label="block size",
        y_label="99.999th latency (us)",
        series=tuple(series),
        notes=f"{io_count} I/Os per point; tails dominated by device stalls",
    )


# ----------------------------------------------------------------------
# Figures 12 and 13: CPU utilization
# ----------------------------------------------------------------------
def fig12(io_count: int = 1500, block_sizes: Tuple[int, ...] = BLOCK_SIZES):
    """CPU utilization of hybrid polling (Fig. 12)."""
    cells = [
        ("ull", rw, bs, "hybrid", "kernel")
        for rw in PATTERNS
        for bs in block_sizes
    ]
    data = _sync_sweep("fig12", cells, io_count)
    series = []
    for rw in PATTERNS:
        ys = [
            100.0 * data[("ull", rw, bs, "hybrid", "kernel")].cpu_utilization()
            for bs in block_sizes
        ]
        series.append(
            Series.from_points(
                PATTERN_LABELS[rw], [KB[bs] for bs in block_sizes], ys, "%"
            )
        )
    return FigureResult(
        figure_id="fig12",
        title="CPU utilization of hybrid polling — ULL SSD",
        x_label="block size",
        y_label="CPU utilization (%)",
        series=tuple(series),
    )


def fig13(io_count: int = 1500, block_sizes: Tuple[int, ...] = BLOCK_SIZES):
    """CPU utilization, interrupt vs. poll, split user/kernel (Fig. 13)."""
    variants = (("Interrupt", "interrupt", "kernel"), ("Poll", "poll", "kernel"))
    cells = [
        ("ull", rw, bs, method, stack)
        for rw in PATTERNS
        for _label, method, stack in variants
        for bs in block_sizes
    ]
    data = _sync_sweep("fig13", cells, io_count)
    series = []
    for rw in PATTERNS:
        for label, method, stack in variants:
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
        figure_id="fig13",
        title="CPU utilization of interrupt vs poll — ULL SSD",
        x_label="block size",
        y_label="CPU utilization (%)",
        series=tuple(series),
    )


# ----------------------------------------------------------------------
# Figure 14: CPU cycle breakdown of the polled path
# ----------------------------------------------------------------------
def fig14a(io_count: int = 1500):
    """Kernel cycles: NVMe driver vs. rest of the storage stack (Fig. 14a)."""
    cells = [("ull", rw, 4096, "poll", "kernel") for rw in PATTERNS]
    data = _sync_sweep("fig14a", cells, io_count)
    driver_share, stack_share = [], []
    for rw in PATTERNS:
        result = data[("ull", rw, 4096, "poll", "kernel")]
        by_module = result.accounting.cycles_by_module(ExecMode.KERNEL)
        storage = {
            module: ns
            for module, ns in by_module.items()
            if module in ("vfs", "blk-mq", "nvme-driver")
        }
        total = sum(storage.values())
        driver = storage.get("nvme-driver", 0)
        driver_share.append(100.0 * driver / total)
        stack_share.append(100.0 * (total - driver) / total)
    labels = [PATTERN_LABELS[rw] for rw in PATTERNS]
    return FigureResult(
        figure_id="fig14a",
        title="Kernel cycle breakdown by module (polled mode, ULL)",
        x_label="pattern",
        y_label="% of storage-stack cycles",
        series=(
            Series.from_points("Storage Stack", labels, stack_share, "%"),
            Series.from_points("NVMe Driver", labels, driver_share, "%"),
        ),
    )


def fig14b(io_count: int = 1500):
    """Kernel cycles: blk_mq_poll and nvme_poll dominate (Fig. 14b)."""
    cells = [("ull", rw, 4096, "poll", "kernel") for rw in PATTERNS]
    data = _sync_sweep("fig14b", cells, io_count)
    blk_poll, nvme_poll = [], []
    for rw in PATTERNS:
        result = data[("ull", rw, 4096, "poll", "kernel")]
        shares = result.accounting.cycle_share_by_function(ExecMode.KERNEL)
        blk_poll.append(100.0 * shares.get("blk_mq_poll", 0.0))
        nvme_poll.append(100.0 * shares.get("nvme_poll", 0.0))
    labels = [PATTERN_LABELS[rw] for rw in PATTERNS]
    return FigureResult(
        figure_id="fig14b",
        title="Kernel cycle breakdown by function (polled mode, ULL)",
        x_label="pattern",
        y_label="% of kernel cycles",
        series=(
            Series.from_points("blk_mq_poll", labels, blk_poll, "%"),
            Series.from_points("nvme_poll", labels, nvme_poll, "%"),
        ),
    )


# ----------------------------------------------------------------------
# Figure 15: memory instructions of poll, normalized to interrupt
# ----------------------------------------------------------------------
def fig15(io_count: int = 1500, block_sizes: Tuple[int, ...] = BLOCK_SIZES):
    """Normalized load/store counts of polling (Fig. 15)."""
    panels = (("randread", "Reads"), ("randwrite", "Writes"))
    cells = [
        ("ull", rw, bs, method, "kernel")
        for rw, _panel in panels
        for bs in block_sizes
        for method in ("poll", "interrupt")
    ]
    data = _sync_sweep("fig15", cells, io_count)
    series = []
    for rw, panel in panels:
        loads, stores = [], []
        for bs in block_sizes:
            poll = data[("ull", rw, bs, "poll", "kernel")]
            interrupt = data[("ull", rw, bs, "interrupt", "kernel")]
            loads.append(
                poll.accounting.total_loads() / interrupt.accounting.total_loads()
            )
            stores.append(
                poll.accounting.total_stores() / interrupt.accounting.total_stores()
            )
        xs = [KB[bs] for bs in block_sizes]
        series.append(Series.from_points(f"{panel} Load", xs, loads, "x"))
        series.append(Series.from_points(f"{panel} Store", xs, stores, "x"))
    return FigureResult(
        figure_id="fig15",
        title="Memory instructions of poll, normalized to interrupt (ULL)",
        x_label="block size",
        y_label="normalized count (x interrupt)",
        series=tuple(series),
    )


# ----------------------------------------------------------------------
# Figure 16: latency reduction of polling and hybrid polling
# ----------------------------------------------------------------------
def fig16(io_count: int = 2000, block_sizes: Tuple[int, ...] = BLOCK_SIZES):
    """Latency reduction vs. interrupt: poll and hybrid (Fig. 16)."""
    cells = [
        ("ull", rw, bs, method, "kernel")
        for rw in PATTERNS
        for bs in block_sizes
        for method in ("interrupt", "poll", "hybrid")
    ]
    data = _sync_sweep("fig16", cells, io_count)
    series = []
    for rw in PATTERNS:
        for label, method in (("Polling", "poll"), ("Hybrid Polling", "hybrid")):
            ys = []
            for bs in block_sizes:
                base = data[("ull", rw, bs, "interrupt", "kernel")]
                variant = data[("ull", rw, bs, method, "kernel")]
                reduction = 100.0 * (
                    1.0 - variant.latency.mean_ns / base.latency.mean_ns
                )
                ys.append(reduction)
            series.append(
                Series.from_points(
                    f"{PATTERN_LABELS[rw]} {label}",
                    [KB[bs] for bs in block_sizes],
                    ys,
                    "%",
                )
            )
    return FigureResult(
        figure_id="fig16",
        title="Latency reduction over interrupt: poll vs hybrid (ULL)",
        x_label="block size",
        y_label="latency reduction (%)",
        series=tuple(series),
    )
