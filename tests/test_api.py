"""Tests for the stable public facade (repro.api)."""

import dataclasses

import pytest

from repro.api import JobConfig, Testbed, device_snapshot, open_device, run_job
from repro.kstack.stack import KernelStack
from repro.sim import Simulator
from repro.spdk.stack import SpdkStack
from repro.ssd.registry import DeviceKind


class TestJobConfig:
    def test_frozen(self):
        config = JobConfig(rw="randread")
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.rw = "read"

    def test_defaults(self):
        config = JobConfig(rw="randread")
        assert config.engine == "psync"
        assert config.block_size == 4096
        assert config.iodepth == 1
        assert config.seed == 1234


class TestTestbed:
    def test_accepts_strings_and_enums(self):
        assert Testbed(device="ull").device_name == "ull"
        assert Testbed(device=DeviceKind.NVME).device_name == "nvme"
        assert Testbed(stack="spdk").stack_name == "spdk"

    def test_device_config_applies_overrides(self):
        base = Testbed(device="ull").device_config()
        tweaked = Testbed(
            device="ull", config_overrides=(("overprovision", 0.4),)
        ).device_config()
        assert tweaked.overprovision == 0.4
        assert tweaked.timing == base.timing

    def test_build_constructs_requested_stack(self):
        sim = Simulator()
        _, kernel = Testbed(device="ull", precondition=0.0).build(sim)
        assert isinstance(kernel, KernelStack)
        sim = Simulator()
        _, spdk = Testbed(
            device="ull", stack="spdk", precondition=0.0
        ).build(sim)
        assert isinstance(spdk, SpdkStack)

    def test_open_device_preconditions(self):
        sim = Simulator()
        device = Testbed(device="ull").open_device(sim)
        assert device.ftl.mapping.mapped_lpn_count == device.logical_pages
        sim = Simulator()
        empty = Testbed(device="ull", precondition=0.0).open_device(sim)
        assert empty.ftl.mapping.mapped_lpn_count == 0

    def test_module_level_open_device(self):
        sim = Simulator()
        device = open_device(sim, "nvme", precondition=0.0)
        assert device.config.timing.name == "planar-MLC"

    def test_run_job_returns_result_and_optionally_device(self):
        testbed = Testbed(device="ull")
        result = testbed.run_job(JobConfig(rw="randread", io_count=120))
        assert result.latency.count == 120
        result, device = testbed.run_job(
            JobConfig(rw="randread", io_count=120), want_device=True
        )
        assert device.completed_reads == 120

    def test_module_level_run_job(self):
        result = run_job(JobConfig(rw="randread", io_count=100), device="ull")
        assert result.latency.count == 100
        with pytest.raises(TypeError, match="not both"):
            run_job(
                JobConfig(rw="randread"), Testbed(device="ull"), device="ull"
            )

    def test_runs_are_reproducible(self):
        testbed = Testbed(device="ull", completion="poll")
        config = JobConfig(rw="randrw", io_count=150)
        first = testbed.run_job(config)
        second = testbed.run_job(config)
        assert first.latency.mean_ns == second.latency.mean_ns
        assert first.latency.p99999_ns == second.latency.p99999_ns

    def test_run_packages_measurement_with_snapshot(self):
        testbed = Testbed(device="ull")
        measurement = testbed.run(
            JobConfig(rw="randwrite", io_count=150), want_device=True
        )
        assert measurement.result.latency.count == 150
        assert measurement.device is not None
        assert measurement.device.erases >= 0

    def test_device_snapshot_detaches_state(self):
        sim = Simulator()
        device = Testbed(device="ull").open_device(sim)
        snap = device_snapshot(device)
        assert snap.write_amplification >= 0.0
        assert snap.gc_events == len(device.stats.gc_events)


class TestNamedDevices:
    """The redesigned facade: devices are named registry entries."""

    def test_zoo_name_runs_identically_to_preset(self):
        config = JobConfig(rw="randread", io_count=130)
        via_name = Testbed(device="zssd").run_job(config)
        via_preset = Testbed(device="ull").run_job(config)
        assert via_name.latency == via_preset.latency
        assert via_name.duration_ns == via_preset.duration_ns

    def test_spec_path_as_device(self):
        from repro.ssd.registry import DEVICES_DIR

        testbed = Testbed(device=str(DEVICES_DIR / "qlc.toml"))
        assert testbed.device_config() == Testbed(device="qlc").device_config()

    def test_device_spec_object_as_device(self):
        from repro.api import DeviceSpec, load_device_spec
        from repro.ssd.registry import DEVICES_DIR

        spec = load_device_spec(DEVICES_DIR / "tlc-multistep.toml")
        assert isinstance(spec, DeviceSpec)
        testbed = Testbed(device=spec)
        assert testbed.device_name == "tlc-multistep"
        assert testbed.device_config() == Testbed(
            device="tlc-multistep"
        ).device_config()

    def test_ssd_config_object_as_device(self):
        explicit = Testbed(device="nvme").device_config()
        testbed = Testbed(device=explicit)
        assert testbed.device_config() == explicit
        result = testbed.run_job(JobConfig(rw="randread", io_count=100))
        assert result.latency.count == 100

    def test_list_devices_exposed_on_facade(self):
        from repro.api import list_devices

        names = list_devices()
        assert "zssd" in names and "intel750" in names
        assert len(names) >= 6

    def test_unknown_device_is_a_spec_error(self):
        from repro.api import DeviceSpecError

        with pytest.raises(DeviceSpecError):
            Testbed(device="warp-drive").device_config()

    def test_spec_device_with_overrides(self):
        tweaked = Testbed(
            device="qlc", config_overrides=(("overprovision", 0.4),)
        ).device_config()
        assert tweaked.overprovision == 0.4
