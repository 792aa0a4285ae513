"""Tests for the experiment harness (the api facade's builders and runs)."""

from repro.api import JobConfig, Testbed
from repro.kstack.completion import CompletionMethod
from repro.kstack.stack import KernelStack
from repro.sim import Simulator
from repro.spdk.stack import SpdkStack
from repro.ssd.registry import DeviceKind


def sync_job(device, rw, *, io_count, block_size=4096, stack="kernel",
             completion="interrupt", seed=42):
    """A psync measurement with the historical one-seed convention."""
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
    """A libaio measurement with the historical seed split (device 42 /
    stack 11)."""
    testbed = Testbed(device=device, device_seed=seed, stack_seed=11)
    return testbed.run_job(
        JobConfig(
            rw=rw, engine="libaio", iodepth=iodepth, io_count=io_count,
            write_fraction=write_fraction, seed=seed,
        ),
        want_device=want_device,
    )


class TestBuilders:
    def test_device_configs_differ(self):
        ull = Testbed(device=DeviceKind.ULL).device_config()
        nvme = Testbed(device=DeviceKind.NVME).device_config()
        assert ull.suspend_resume and not nvme.suspend_resume
        assert ull.timing.name == "Z-NAND"
        assert nvme.timing.name == "planar-MLC"
        assert nvme.read_cache_units > 0 and ull.read_cache_units == 0

    def test_open_device_preconditions(self):
        sim = Simulator()
        device = Testbed(device=DeviceKind.ULL, precondition=1.0).open_device(sim)
        assert device.ftl.mapping.mapped_lpn_count == device.logical_pages

    def test_open_device_skips_precondition(self):
        sim = Simulator()
        device = Testbed(device=DeviceKind.ULL, precondition=0.0).open_device(sim)
        assert device.ftl.mapping.mapped_lpn_count == 0

    def test_build_host_kinds(self):
        _, kernel = Testbed(precondition=0.0).build(Simulator())
        assert isinstance(kernel, KernelStack)
        _, spdk = Testbed(stack="spdk", precondition=0.0).build(Simulator())
        assert isinstance(spdk, SpdkStack)


class TestRunners:
    def test_sync_job_returns_metrics(self):
        result = sync_job(DeviceKind.ULL, "randread", io_count=100)
        assert result.latency.count == 100
        assert 8 < result.latency.mean_us < 30
        assert result.accounting is not None

    def test_sync_job_with_poll_is_faster(self):
        interrupt = sync_job(DeviceKind.ULL, "read", io_count=150)
        poll = sync_job(
            DeviceKind.ULL, "read", io_count=150,
            completion=CompletionMethod.POLL,
        )
        assert poll.latency.mean_ns < interrupt.latency.mean_ns

    def test_sync_job_spdk_stack(self):
        result = sync_job(
            DeviceKind.ULL, "read", io_count=100, stack="spdk"
        )
        assert result.latency.mean_us < 12

    def test_async_job_returns_device(self):
        result, device = async_job(
            DeviceKind.ULL, "randread", iodepth=4, io_count=200,
            want_device=True,
        )
        assert result.latency.count == 200
        assert device.completed_reads == 200

    def test_async_bandwidth_grows_with_depth(self):
        shallow = async_job(DeviceKind.ULL, "randread", iodepth=1, io_count=300)
        deep = async_job(DeviceKind.ULL, "randread", iodepth=16, io_count=300)
        assert deep.bandwidth_mbps > 4 * shallow.bandwidth_mbps

    def test_seed_reproducibility(self):
        first = sync_job(DeviceKind.NVME, "randread", io_count=80, seed=5)
        second = sync_job(DeviceKind.NVME, "randread", io_count=80, seed=5)
        assert first.latency.mean_ns == second.latency.mean_ns
        assert first.latency.p99999_ns == second.latency.p99999_ns


class TestHeadlineNumbers:
    """Coarse checks against the paper's Section IV numbers."""

    def test_ull_random_read_near_16us(self):
        result = async_job(DeviceKind.ULL, "randread", iodepth=1, io_count=400)
        assert 12 < result.latency.mean_us < 20  # paper: 15.9 us

    def test_nvme_random_read_near_83us(self):
        result = async_job(DeviceKind.NVME, "randread", iodepth=1, io_count=400)
        assert 70 < result.latency.mean_us < 95  # paper: 82.9 us

    def test_nvme_buffered_write_near_14us(self):
        result = async_job(DeviceKind.NVME, "randwrite", iodepth=1, io_count=400)
        assert 10 < result.latency.mean_us < 18  # paper: 14.1 us

    def test_ull_write_near_11us(self):
        result = async_job(DeviceKind.ULL, "randwrite", iodepth=1, io_count=400)
        assert 8 < result.latency.mean_us < 15  # paper: 11.3 us

    def test_nvme_random_read_5x_slower_than_ull(self):
        nvme = async_job(DeviceKind.NVME, "randread", iodepth=1, io_count=300)
        ull = async_job(DeviceKind.ULL, "randread", iodepth=1, io_count=300)
        ratio = nvme.latency.mean_ns / ull.latency.mean_ns
        assert 3.5 < ratio < 7.0  # paper: 5.2x

