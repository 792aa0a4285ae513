"""Behavioral tests of the paper's two devices (Section III-B).

The devices are exercised through their registry aliases
(``"ull"``/``"nvme"``), which resolve to the ``zssd``/``intel750`` specs.
"""

import pytest

from repro.sim import Simulator
from repro.ssd import SsdDevice
from repro.ssd.device import IoOp
from repro.ssd.registry import resolve_config


def ull_config():
    return resolve_config("ull")


def nvme_config():
    return resolve_config("nvme")


def fresh(config):
    sim = Simulator()
    device = SsdDevice(sim, config)
    device.precondition(1.0)
    return sim, device


def mean_device_latency(sim, device, op, offsets, nbytes=4096):
    total = 0
    for offset in offsets:
        request = device.submit(op, offset, nbytes)
        sim.run_until_event(request.done)
        total += request.device_latency_ns
    return total / len(offsets)


class TestUllPreset:
    def test_paper_parameters(self):
        config = ull_config()
        assert config.timing.read_ns == 3_000  # Table I
        assert config.suspend_resume and config.super_channel
        assert config.physical_dies_per_die == 2
        assert config.overprovision == pytest.approx(0.20)
        assert config.read_cache_units == 0  # Z-NAND needs no read cache

    def test_random_read_device_latency_near_12us(self):
        import numpy as np

        sim, device = fresh(ull_config())
        rng = np.random.default_rng(1)
        offsets = [int(rng.integers(0, device.logical_pages)) * 4096
                   for _ in range(200)]
        mean = mean_device_latency(sim, device, IoOp.READ, offsets)
        # Paper's 15.9us includes ~4us host software; device-side ~12us.
        assert 9_000 < mean < 14_000

    def test_sequential_reads_faster_than_random(self):
        """The map-segment cache: sequential lookups hit, random miss."""
        sim, device = fresh(ull_config())
        seq = mean_device_latency(
            sim, device, IoOp.READ, [i * 4096 for i in range(200)]
        )
        import numpy as np

        rng = np.random.default_rng(2)
        rand = mean_device_latency(
            sim, device, IoOp.READ,
            [int(rng.integers(0, device.logical_pages)) * 4096 for _ in range(200)],
        )
        assert rand > seq + 2_000  # paper: 15.9 vs 12.6 us

    def test_suspend_resume_fires_under_mixed_load(self):
        import numpy as np

        sim, device = fresh(ull_config())
        rng = np.random.default_rng(3)
        pages = device.logical_pages
        for index in range(600):
            offset = int(rng.integers(0, pages)) * 4096
            if index % 3 == 0:
                request = device.write(offset, 4096)
            else:
                request = device.read(offset, 4096)
            sim.run_until_event(request.done)  # pace like a QD1 host
        sim.run()
        assert sum(die.suspends for die in device.controller.dies) > 0


class TestNvmePreset:
    def test_paper_parameters(self):
        config = nvme_config()
        assert config.timing.read_ns == 70_000  # planar MLC tR
        assert not config.suspend_resume and not config.super_channel
        assert config.read_cache_units > 0 and config.prefetch_ahead > 0
        assert config.write_buffer_units > ull_config().write_buffer_units

    def test_random_read_exposes_raw_flash(self):
        import numpy as np

        sim, device = fresh(nvme_config())
        rng = np.random.default_rng(4)
        offsets = [int(rng.integers(0, device.logical_pages)) * 4096
                   for _ in range(150)]
        mean = mean_device_latency(sim, device, IoOp.READ, offsets)
        # Paper's 82.9us includes ~4us host software; device ~79us.
        assert 70_000 < mean < 90_000

    def test_prefetcher_accelerates_sequential_reads(self):
        sim, device = fresh(nvme_config())
        seq = mean_device_latency(
            sim, device, IoOp.READ, [i * 4096 for i in range(300)]
        )
        assert seq < 30_000  # cache hits, not 80us flash reads
        assert device.stats.cache_read_hits > 100

    def test_buffered_write_hides_millisecond_program(self):
        sim, device = fresh(nvme_config())
        mean = mean_device_latency(
            sim, device, IoOp.WRITE, [i * 4096 for i in range(100)]
        )
        assert mean < 15_000  # tPROG is 1.1ms; the buffer hides it

    def test_both_presets_share_idle_power(self):
        assert ull_config().power.idle_w == nvme_config().power.idle_w == 3.8

    def test_program_power_mlc_above_znand(self):
        # Per *pair*, Z-NAND programs still draw less than one MLC die.
        ull = ull_config()
        nvme = nvme_config()
        assert (
            ull.power.program_op_w * ull.physical_dies_per_die
            < nvme.power.program_op_w
        )
