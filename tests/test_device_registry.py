"""Tests for the device registry (repro.ssd.registry).

The two load-bearing guarantees:

* **golden byte-identity** — the ``zssd``/``intel750`` zoo specs and
  their ``ull``/``nvme`` aliases build configs that match the committed
  golden (``tests/golden/device_configs.json``, the paper-derived
  reference), and measurements run through an alias are byte-identical
  to runs of its twin, serially and with worker fan-out;
* **cache-key discipline** — named devices get content-addressed
  ``spec:<name>:<hash>`` identities, distinct per device and shared
  between an alias and its twin.
"""

import dataclasses
import json
import pickle
from pathlib import Path

import pytest

from repro.core.runners import sync_point
from repro.core.sweep import ExperimentSpec, SweepEngine, point_cache_key
from repro.ssd.registry import (
    DEVICES_DIR,
    clear_cache,
    device_identity,
    device_override,
    effective_device,
    get_spec,
    list_devices,
    load_device_spec,
    register_spec,
    resolve_config,
    spec_label,
    unregister_spec,
)
from repro.ssd.spec import DeviceSpecError, spec_from_config

ZOO = ("intel750", "no-gc-pm", "planar-mlc", "qlc", "tlc-multistep", "zssd")

#: ``repr(sorted(asdict(config).items()))`` of the paper's two devices,
#: keyed by alias; frozen from the hand-wired builders the specs replaced.
GOLDEN = json.loads(
    (Path(__file__).parent / "golden" / "device_configs.json").read_text()
)


def _golden_form(config):
    return repr(sorted(dataclasses.asdict(config).items()))


class TestRegistryBasics:
    def test_zoo_ships_the_promised_devices(self):
        names = list_devices()
        assert set(ZOO) <= set(names)
        assert len(names) >= 6

    def test_every_listed_device_resolves(self):
        for name in list_devices():
            config = resolve_config(name)
            assert config.channels >= 1
            assert spec_label(config) == name

    def test_unknown_name_is_a_spec_error_listing_choices(self):
        with pytest.raises(DeviceSpecError) as err:
            resolve_config("not-a-device")
        assert "zssd" in str(err.value) and "ull" in str(err.value)

    def test_spec_path_resolves(self):
        path = DEVICES_DIR / "qlc.toml"
        config = resolve_config(str(path))
        assert config == resolve_config("qlc")

    def test_load_device_spec(self):
        spec = load_device_spec(DEVICES_DIR / "zssd.toml")
        assert spec.name == "zssd"

    def test_file_stem_must_match_spec_name(self, tmp_path, monkeypatch):
        clear_cache()
        rogue = tmp_path / "alias.toml"
        rogue.write_text((DEVICES_DIR / "qlc.toml").read_text())
        monkeypatch.setattr("repro.ssd.registry.DEVICES_DIR", tmp_path)
        try:
            with pytest.raises(DeviceSpecError, match="stem"):
                get_spec("alias")
        finally:
            clear_cache()

    def test_register_and_unregister_in_process(self):
        spec = spec_from_config(resolve_config("zssd"), name="custom-dev")
        register_spec(spec)
        try:
            assert "custom-dev" in list_devices()
            assert resolve_config("custom-dev") == resolve_config("zssd")
        finally:
            unregister_spec(spec.name)
        assert "custom-dev" not in list_devices()

    def test_preset_names_reserved(self):
        for alias in ("ull", "nvme"):
            spec = spec_from_config(resolve_config("zssd"), name=alias)
            with pytest.raises(DeviceSpecError, match="reserved"):
                register_spec(spec)

    def test_overrides_apply(self):
        config = resolve_config("zssd", (("overprovision", 0.33),))
        assert config.overprovision == 0.33


class TestGoldenIdentity:
    def test_zssd_config_equals_ull_preset(self):
        assert _golden_form(resolve_config("zssd")) == GOLDEN["ull"]

    def test_intel750_config_equals_nvme_preset(self):
        assert _golden_form(resolve_config("intel750")) == GOLDEN["nvme"]

    def test_preset_aliases_build_presets(self):
        for alias in ("ull", "nvme"):
            config = resolve_config(alias)
            assert _golden_form(config) == GOLDEN[alias]
            # The twin's config, still labelled with the alias.
            assert spec_label(config) == alias

    def _measure(self, device, jobs=1):
        engine = SweepEngine(jobs=jobs)
        spec = ExperimentSpec(
            name=f"golden-{device}",
            points=tuple(
                sync_point(device, rw, io_count=150, key=(rw,))
                for rw in ("randread", "randwrite")
            ),
        )
        return {
            key: pickle.dumps(m.result.latency)
            for key, m in engine.run(spec).items()
        }

    # An alias runs its twin's spec; only the name in the point differs,
    # and it must not perturb a single byte of the result.
    def test_zssd_measurements_byte_identical_to_preset_serial(self):
        assert self._measure("zssd") == self._measure("ull")

    def test_zssd_measurements_byte_identical_parallel(self):
        assert self._measure("zssd", jobs=4) == self._measure("ull")

    def test_intel750_measurements_byte_identical_to_preset(self):
        assert self._measure("intel750") == self._measure("nvme")


class TestCacheIdentity:
    def test_aliases_share_their_twins_identity(self):
        overrides = (("overprovision", 0.4),)
        for alias, twin in (("ull", "zssd"), ("nvme", "intel750")):
            assert device_identity(alias) == device_identity(twin)
            assert device_identity(alias).startswith(f"spec:{twin}:")
            assert device_identity(alias, overrides) == device_identity(
                twin, overrides
            )
            assert device_identity(alias, overrides) != device_identity(alias)

    def test_spec_identity_is_content_addressed(self):
        identity = device_identity("qlc")
        assert identity.startswith("spec:qlc:")
        assert identity == f"spec:qlc:{get_spec('qlc').spec_hash()}"

    def test_zoo_devices_get_distinct_cache_keys(self):
        keys = {
            point_cache_key(sync_point(name, "randread", io_count=100))
            for name in ZOO
        }
        assert len(keys) == len(ZOO)

    def test_zssd_and_ull_points_key_differently(self):
        # The device identity is shared, but the point's params carry
        # the name it was asked for (it labels the output).
        # Byte-identical *results*, separate cache rows.
        alias = point_cache_key(sync_point("ull", "randread", io_count=100))
        twin = point_cache_key(sync_point("zssd", "randread", io_count=100))
        assert alias != twin

    def test_editing_a_spec_rekeys_it(self):
        base = spec_from_config(resolve_config("zssd"), name="edit-me")
        edited = spec_from_config(
            dataclasses.replace(resolve_config("zssd"), overprovision=0.31),
            name="edit-me",
        )
        register_spec(base)
        try:
            before = device_identity("edit-me")
            register_spec(edited)
            after = device_identity("edit-me")
        finally:
            unregister_spec("edit-me")
        assert before != after


class TestDeviceOverride:
    def test_override_substitutes_at_declaration(self):
        with device_override("qlc"):
            point = sync_point("ull", "randread", io_count=100)
        assert dict(point.params)["device"] == "qlc"
        # ...but the default key still names the declared grid.
        assert point.key == ("ull", "randread", 4096, "interrupt", "kernel")

    def test_no_override_is_identity(self):
        assert effective_device("ull") == "ull"
        point = sync_point("ull", "randread", io_count=100)
        assert dict(point.params)["device"] == "ull"

    def test_override_validates_eagerly(self):
        with pytest.raises(DeviceSpecError):
            with device_override("no-such-device"):
                pass  # pragma: no cover

    def test_override_restores_on_exit(self):
        with device_override("qlc"):
            pass
        assert effective_device("ull") == "ull"
