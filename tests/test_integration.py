"""Cross-stack integration tests: end-to-end invariants on the paper's
two devices."""

import pytest

from repro import (
    CompletionMethod,
    DeviceKind,
    FioJob,
    IoEngineKind,
    KernelStack,
    Simulator,
    SpdkStack,
    SsdDevice,
    run_job,
)
from repro.api import JobConfig, Testbed, open_device
from repro.sim import engine as sim_engine
from repro.ssd.registry import resolve_config


def sync_job(device, rw, *, io_count, block_size=4096, stack="kernel",
             completion="interrupt", seed=42):
    testbed = Testbed(
        device=device, stack=stack, completion=completion,
        device_seed=seed, stack_seed=seed,
    )
    return testbed.run_job(JobConfig(
        rw=rw, engine="psync", block_size=block_size, io_count=io_count,
        seed=seed,
    ))


def async_job(device, rw, *, iodepth=1, io_count, write_fraction=0.5,
              seed=42, want_device=False):
    testbed = Testbed(device=device, device_seed=seed, stack_seed=11)
    return testbed.run_job(
        JobConfig(
            rw=rw, engine="libaio", iodepth=iodepth, io_count=io_count,
            write_fraction=write_fraction, seed=seed,
        ),
        want_device=want_device,
    )


class TestLatencyOrdering:
    """SPDK < poll < interrupt must hold on the ULL SSD end to end."""

    def test_stack_ordering_on_ull(self):
        interrupt = sync_job(DeviceKind.ULL, "read", io_count=400)
        poll = sync_job(
            DeviceKind.ULL, "read", io_count=400, completion=CompletionMethod.POLL
        )
        spdk = sync_job(
            DeviceKind.ULL, "read", io_count=400, stack="spdk"
        )
        assert spdk.latency.mean_ns < poll.latency.mean_ns < interrupt.latency.mean_ns

    def test_device_ordering_random_reads(self):
        ull = sync_job(DeviceKind.ULL, "randread", io_count=300)
        nvme = sync_job(DeviceKind.NVME, "randread", io_count=300)
        assert nvme.latency.mean_ns > 3 * ull.latency.mean_ns

    def test_block_size_monotonicity(self):
        """Bigger requests take longer on every stack."""
        previous = 0.0
        for block_size in (4096, 16384, 65536):
            result = sync_job(
                DeviceKind.ULL, "read", block_size=block_size, io_count=200
            )
            assert result.latency.mean_ns > previous
            previous = result.latency.mean_ns


class TestThroughputSaturation:
    def test_ull_saturates_by_qd16(self):
        at_8 = async_job(DeviceKind.ULL, "read", iodepth=8, io_count=1500)
        at_32 = async_job(DeviceKind.ULL, "read", iodepth=32, io_count=1500)
        assert at_32.bandwidth_mbps < 1.2 * at_8.bandwidth_mbps

    def test_nvme_still_scaling_past_qd16(self):
        at_8 = async_job(DeviceKind.NVME, "randread", iodepth=8, io_count=1500)
        at_64 = async_job(DeviceKind.NVME, "randread", iodepth=64, io_count=1500)
        assert at_64.bandwidth_mbps > 2.5 * at_8.bandwidth_mbps


class TestDeviceConsistencyUnderLoad:
    def test_mixed_workload_preserves_ftl_invariants(self):
        result, device = async_job(
            DeviceKind.ULL, "randrw", iodepth=16, io_count=4000,
            write_fraction=0.5, want_device=True,
        )
        device.ftl.mapping.check_invariants()
        assert result.latency.count == 4000

    def test_nvme_gc_storm_completes_all_ios(self):
        # The preset leaves ~4 erased blocks per die after precondition;
        # ~25k overwrites push every die past the GC watermark.
        result, device = async_job(
            DeviceKind.NVME, "randwrite", iodepth=8, io_count=30000,
            want_device=True,
        )
        assert result.latency.count == 30000
        assert device.stats.gc_events, "overwrite storm must trigger GC"
        device.ftl.mapping.check_invariants()

    def test_power_always_at_least_idle(self):
        result, device = async_job(
            DeviceKind.ULL, "randwrite", iodepth=8, io_count=2000,
            want_device=True,
        )
        values = device.power.series.values
        assert (values >= device.config.power.idle_w - 1e-9).all()


class TestDeterminism:
    def test_full_stack_runs_are_bit_identical(self):
        def one_run():
            sim = Simulator()
            device = SsdDevice(sim, resolve_config("ull"), seed=3)
            device.precondition()
            stack = KernelStack(
                sim, device, completion=CompletionMethod.HYBRID, seed=3
            )
            job = FioJob(name="d", rw="randrw", io_count=300, seed=3)
            result = run_job(sim, stack, job)
            return (
                result.latency.mean_ns,
                result.latency.p99999_ns,
                result.duration_ns,
                stack.accounting.total_loads(),
            )

        assert one_run() == one_run()

    def test_spdk_runs_are_bit_identical(self):
        def one_run():
            sim = Simulator()
            device = SsdDevice(sim, resolve_config("nvme"), seed=4)
            device.precondition()
            stack = SpdkStack(sim, device)
            job = FioJob(
                name="d", rw="randread", io_count=200,
                engine=IoEngineKind.SPDK, seed=4,
            )
            result = run_job(sim, stack, job)
            return result.latency.mean_ns, stack.accounting.total_stores()

        assert one_run() == one_run()


class TestPresetSanity:
    def test_preset_capacities(self):
        sim = Simulator()
        ull = open_device(sim, DeviceKind.ULL, precondition=0.0)
        nvme = open_device(sim, DeviceKind.NVME, precondition=0.0)
        # Scaled-down but non-trivial devices.
        assert 100 << 20 < ull.capacity_bytes < 1 << 30
        assert 100 << 20 < nvme.capacity_bytes < 2 << 30

    def test_ull_has_more_overprovision(self):
        assert resolve_config("ull").overprovision > resolve_config("nvme").overprovision

    def test_bandwidth_scale_matches_devices(self):
        """ULL peaks near PCIe (~2.7 GB/s here); NVMe near 1.8 GB/s."""
        ull = async_job(DeviceKind.ULL, "read", iodepth=32, io_count=3000)
        nvme = async_job(DeviceKind.NVME, "randread", iodepth=256, io_count=8000)
        assert ull.bandwidth_mbps > 2300
        assert 1300 < nvme.bandwidth_mbps < 2100


class TestHostPathEvents:
    """Exact sim events of a QD1 ULL 4 KB random read on each host path.

    Every run of pure CPU steps between two real waits is one timeout,
    so the per-I/O count is the device's events plus one per host
    segment.  Any change that splits or merges a segment moves these.
    """

    @staticmethod
    def events(stack, completion, io_count):
        testbed = Testbed(device="ull", stack=stack, completion=completion)
        before = sim_engine.events_executed_total
        result = testbed.run_job(JobConfig(rw="randread", io_count=io_count))
        assert result.latency.count == io_count
        return sim_engine.events_executed_total - before

    @pytest.mark.parametrize(
        "stack, completion, at_100, per_io",
        [
            ("kernel", "interrupt", 834, 8),
            ("kernel", "poll", 634, 6),
            ("kernel", "hybrid", 932, 9),
            ("spdk", "interrupt", 634, 6),
        ],
    )
    def test_events_per_io(self, stack, completion, at_100, per_io):
        first = self.events(stack, completion, 100)
        assert first == at_100
        assert self.events(stack, completion, 200) - first == 100 * per_io
