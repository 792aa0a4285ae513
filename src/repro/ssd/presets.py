"""The two devices the paper measures.

Capacities are scaled down (hundreds of MiB) so GC experiments run in
seconds; every latency/bandwidth-relevant parameter keeps its
paper-derived value.  Docstrings note the provenance of each number.

These hand-wired builders are the byte-identity reference for the
``zssd``/``intel750`` specs in the device zoo (``devices/``), and the
construction path behind the ``"ull"``/``"nvme"`` preset names — which
is why their sweep cache identity never changed when the registry
landed.  Code outside the registry names devices through
:mod:`repro.ssd.registry` / :class:`repro.api.Testbed` instead.
"""

from __future__ import annotations

from repro.flash.timing import PLANAR_MLC, Z_NAND
from repro.ssd.config import SsdConfig
from repro.ssd.power import PowerParams


def build_ull_preset(
    *,
    blocks_per_die: int = 34,
    pages_per_block: int = 128,
    write_buffer_units: int = 256,
) -> SsdConfig:
    """The 800 GB Z-SSD prototype (scaled capacity).

    * Z-NAND timing from Table I: tR = 3 µs, tPROG = 100 µs, 2 KB pages.
    * 16 physical channels paired into 8 super-channels (Section II-A2);
      a config "die" is a lockstep pair, so ``channel_mbps`` is the pair
      rate (2 x 1200 MB/s) and each program commits a dual-plane pair
      page = 2 x 2 x 2 KB = 8 KB = 2 mapping units.
    * Program suspend/resume enabled (Section II-A3).
    * Small write buffer: Z-NAND is fast enough not to need a large
      DRAM cache, and the paper's Fig. 4a shows writes tracking reads.
    * Power: SLC-like Z-NAND programs with fewer incremental-step pulses
      than MLC, hence the lower per-die program power (Section IV-D2).
    """
    return SsdConfig(
        name="ULL SSD (Z-SSD)",
        timing=Z_NAND,
        channels=8,  # super-channels (16 physical channels)
        ways_per_channel=4,
        blocks_per_die=blocks_per_die,
        pages_per_block=pages_per_block,
        physical_dies_per_die=2,
        units_per_program=2,
        super_channel=True,
        suspend_resume=True,
        channel_mbps=2400,  # split-DMA drives the pair in lockstep
        read_fw_ns=1_500,
        write_fw_ns=2_800,
        completion_fw_ns=500,
        write_buffer_units=write_buffer_units,
        flush_coalesce_ns=15_000,
        read_cache_units=0,
        prefetch_ahead=0,
        dram_hit_ns=1_200,
        pcie_mbps=3200,
        pcie_latency_ns=200,
        # The 800 GB Z-SSD carves its exposed capacity out of ~1 TB of
        # raw Z-NAND: generous overprovisioning keeps the greedy GC's
        # migration cost low enough that sustained random overwrites
        # never outrun the flush path (the flat line of Fig. 7b).
        overprovision=0.20,
        gc_watermark_blocks=2,
        factory_bad_rate=0.002,
        spare_blocks_per_die=2,
        # Prototype controller: partial map cache in SRAM.  Sequential
        # streams hit; random reads fetch the segment first — the
        # paper's 12.6 us (seq) vs 15.9 us (rand) read gap.
        map_cache_segments=16,
        map_segment_units=1024,
        map_fetch_ns=3_300,
        read_stall_prob=1e-4,
        read_stall_ns=350_000,
        write_stall_prob=1e-4,
        write_stall_ns=250_000,
        power=PowerParams(
            idle_w=3.8,
            read_op_w=0.005,  # per physical die; pairs count twice
            program_op_w=0.040,
            erase_op_w=0.060,
            transfer_w=0.015,
        ),
    )


def build_nvme_preset(
    *,
    blocks_per_die: int = 34,
    pages_per_block: int = 256,
    write_buffer_units: int = 2048,
    read_cache_units: int = 4096,
) -> SsdConfig:
    """An Intel 750-class high-end NVMe SSD (scaled capacity).

    * Planar MLC: tR = 70 µs, tPROG = 1.1 ms, 16 KB pages — chosen so a
      cache-missing 4 KB random read lands near the paper's 82.9 µs.
    * 8 channels x 4 ways, dual-plane programs: one program commits
      2 x 16 KB = 32 KB = 8 mapping units, giving the ~0.9 GB/s write
      bandwidth (~40 % of the 1.8 GB/s read max — Fig. 5b's plateau).
    * Large DRAM: a 2048-unit (8 MiB scaled) write buffer explains the
      14.1 µs buffered write latency; a read cache with sequential
      prefetch explains fast sequential reads vs. raw-flash random reads.
    * No suspend/resume: writes block queued reads on their die/channel —
      the I/O interference of Fig. 6.
    """
    return SsdConfig(
        name="NVMe SSD (Intel 750-class)",
        timing=PLANAR_MLC,
        channels=8,
        ways_per_channel=4,
        blocks_per_die=blocks_per_die,
        pages_per_block=pages_per_block,
        physical_dies_per_die=1,
        units_per_program=8,
        super_channel=False,
        suspend_resume=False,
        channel_mbps=800,
        read_fw_ns=2_500,
        write_fw_ns=4_500,
        completion_fw_ns=600,
        write_buffer_units=write_buffer_units,
        flush_coalesce_ns=80_000,
        read_cache_units=read_cache_units,
        prefetch_ahead=8,
        dram_hit_ns=1_500,
        pcie_mbps=3200,
        pcie_latency_ns=200,
        overprovision=0.125,
        gc_watermark_blocks=2,
        factory_bad_rate=0.0,
        spare_blocks_per_die=0,
        read_stall_prob=1e-4,
        read_stall_ns=1_200_000,
        write_stall_prob=1e-4,
        write_stall_ns=2_500_000,
        power=PowerParams(
            idle_w=3.8,
            read_op_w=0.010,
            program_op_w=0.150,
            erase_op_w=0.120,
            transfer_w=0.015,
        ),
    )
