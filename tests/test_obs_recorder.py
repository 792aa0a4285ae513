"""Tests for the recorder protocol and the Observability bundle built on it."""

import pickle

import pytest

from repro.obs import (
    NULL_OBS,
    NULL_PROFILER,
    NULL_REGISTRY,
    NULL_TELEMETRY,
    NULL_TRACER,
    BlameConfig,
    BlameRecorder,
    MetricsRegistry,
    Observability,
    Profiler,
    ProfilerConfig,
    SloSpec,
    SpanTracer,
    Telemetry,
    TelemetryConfig,
)
from repro.obs.recorder import PidScoped, Recorder
from repro.sim.engine import Simulator

# keyword -> (bundle attribute, recorder type, config type, value when off)
OPT_IN = {
    "telemetry": ("telemetry", Telemetry, TelemetryConfig, NULL_TELEMETRY),
    "profile": ("profiler", Profiler, ProfilerConfig, NULL_PROFILER),
    "blame": ("blame", BlameRecorder, BlameConfig, None),
}


def config_fields(config):
    return tuple(getattr(config, name) for name in type(config).__slots__)


def full_bundle():
    return Observability(
        telemetry=TelemetryConfig(period_ns=5_000, capacity=64, series=("nvme.",)),
        profile=ProfilerConfig(wall=False, top=3),
        blame=BlameConfig(top=4, slos=(SloSpec.parse("read:150us@0.99"),)),
    )


class TestConstruction:
    @pytest.mark.parametrize("keyword", sorted(OPT_IN))
    @pytest.mark.parametrize("form", ["true", "config", "instance", "none"])
    def test_each_form_yields_the_expected_recorder(self, keyword, form):
        attribute, recorder_type, config_type, off = OPT_IN[keyword]
        config = config_type()
        instance = recorder_type()
        value = {"true": True, "config": config, "instance": instance, "none": None}
        obs = Observability(**{keyword: value[form]})
        recorder = getattr(obs, attribute)
        if form == "none":
            assert recorder is off
            return
        assert type(recorder) is recorder_type
        if form == "config":
            assert recorder.config is config
        if form == "instance":
            assert recorder is instance
        if keyword == "blame":
            assert obs.tracer.blame is recorder
            assert recorder not in obs.recorders  # rides the tracer
        else:
            assert recorder in obs.recorders

    def test_default_bundle_records_spans_and_metrics_only(self):
        obs = Observability()
        assert [type(r) for r in obs.recorders] == [SpanTracer, MetricsRegistry]
        assert obs.telemetry is NULL_TELEMETRY
        assert obs.profiler is NULL_PROFILER
        assert obs.blame is None

    def test_null_obs_is_a_bundle_without_recorders(self):
        assert isinstance(NULL_OBS, Observability)
        assert NULL_OBS.recorders == ()
        assert not NULL_OBS.enabled
        assert NULL_OBS.tracer is NULL_TRACER
        assert NULL_OBS.registry is NULL_REGISTRY

    def test_blame_requires_tracing(self):
        with pytest.raises(ValueError, match="requires tracing"):
            Observability(tracing=False, blame=True)

    def test_unknown_recorder_value_is_a_type_error(self):
        with pytest.raises(TypeError, match="TelemetryConfig"):
            Observability(telemetry="yes")

    def test_profiler_subclass_kept_by_identity(self):
        class Hook(Profiler):
            def __init__(self):
                super().__init__(ProfilerConfig(wall=False))
                self.sims = 0

            def new_sim(self):
                self.sims += 1

        hook = Hook()
        obs = Observability(tracing=False, metrics=False, profile=hook)
        assert obs.profiler is hook
        assert obs.recorders == (hook,)
        assert obs.enabled
        sim = Simulator(obs=obs)
        assert sim._prof is hook
        assert hook.sims == 1
        obs.label_device("zssd")  # protocol default: a no-op


class TestLifecycle:
    def test_every_recorder_satisfies_the_protocol(self):
        obs = full_bundle()
        for recorder in obs.recorders + (obs.blame,):
            assert isinstance(recorder, Recorder)
            assert recorder.enabled

    def test_attach_steps_every_pid_in_lockstep(self):
        obs = full_bundle()
        for _ in range(3):
            obs.attach(None)
        assert obs.tracer.current_pid == 3
        assert obs.telemetry.current_pid == 3
        assert obs.blame.current_pid == 3

    def test_label_device_reaches_blame_through_the_tracer(self):
        obs = full_bundle()
        obs.attach(None)
        obs.label_device("zssd")
        assert obs.tracer.device_labels == {1: "zssd"}
        assert obs.telemetry.device_labels == {1: "zssd"}
        assert obs.blame.device_labels == {1: "zssd"}

    def test_absorb_rebases_pids_and_forwards_blame_io_base(self):
        parent = full_bundle()
        parent.attach(None)
        parent.label_device("zssd")
        parent.tracer.begin_io("read", 0, 4096, 0).finish(10)
        worker = parent.fresh()
        worker.attach(None)
        worker.label_device("intel750")
        worker.tracer.begin_io("read", 0, 4096, 0).finish(99)
        parent.absorb(worker)
        for scoped in (parent.tracer, parent.telemetry, parent.blame):
            assert scoped.device_labels == {1: "zssd", 2: "intel750"}
            assert scoped.current_pid == 2
        (_key, records), = [g for g in parent.blame.groups() if g[0][0] == "intel750"]
        assert [(r.pid, r.io_id) for r in records] == [(2, 1)]
        assert parent.blame.observed == 2

    def test_absorb_rejects_a_differently_shaped_bundle(self):
        with pytest.raises(ValueError, match="fresh"):
            Observability().absorb(Observability(metrics=False))

    def test_pid_scoped_rebase(self):
        mine, theirs = PidScoped(), PidScoped()
        mine.new_sim()
        theirs.new_sim()
        theirs.label_device("qlc")
        theirs.new_sim()
        theirs.label_device("")  # empty labels are ignored
        assert mine._rebase(theirs) == 1
        assert mine.current_pid == 3
        assert mine.device_labels == {2: "qlc"}


class TestFresh:
    def test_same_configs_and_empty_state(self):
        obs = full_bundle()
        obs.attach(None)
        obs.tracer.begin_io("read", 0, 4096, 0).finish(10)
        fresh = obs.fresh()
        assert [type(r) for r in fresh.recorders] == [type(r) for r in obs.recorders]
        for attribute in ("telemetry", "profiler", "blame"):
            assert config_fields(getattr(fresh, attribute).config) == config_fields(
                getattr(obs, attribute).config
            )
        assert len(fresh.tracer) == 0 and fresh.tracer.current_pid == 1
        assert fresh.blame.observed == 0
        assert fresh.tracer.blame is fresh.blame

    def test_minimal_bundle_stays_minimal(self):
        fresh = Observability(tracing=False, telemetry=True).fresh()
        assert [type(r) for r in fresh.recorders] == [MetricsRegistry, Telemetry]
        assert fresh.tracer is NULL_TRACER
        assert fresh.blame is None

    def test_survives_a_pickle_round_trip(self):
        obs = full_bundle()
        clone = pickle.loads(pickle.dumps(obs.fresh()))
        assert clone.tracer.blame is clone.blame
        assert [type(r) for r in clone.recorders] == [type(r) for r in obs.recorders]
        for attribute in ("telemetry", "profiler", "blame"):
            assert config_fields(getattr(clone, attribute).config) == config_fields(
                getattr(obs, attribute).config
            )
        # The clone still records, and its parent absorbs it.
        clone.attach(None)
        clone.tracer.begin_io("read", 0, 4096, 0).finish(5)
        obs.absorb(clone)
        assert len(obs.tracer) == 1 and obs.blame.observed == 1
