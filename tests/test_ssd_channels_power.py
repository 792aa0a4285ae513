"""Tests for the channel fabric and the power meter."""

import dataclasses

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.flash.chip import OpKind
from repro.sim import Simulator
from repro.ssd.channels import ChannelArray
from repro.ssd.power import PowerMeter, PowerParams
from repro.stats import TimeSeries


class TestChannelArray:
    def test_transfer_time_from_rate(self):
        sim = Simulator()
        channels = ChannelArray(sim, 4, mbps=800)
        # 800 MB/s == 0.8 bytes/ns -> 4096 B = 5120 ns.
        assert channels.transfer_ns(4096) == 5120

    def test_transfers_serialize_per_channel(self):
        sim = Simulator()
        channels = ChannelArray(sim, 2, mbps=1000)
        first = channels.transfer(0, 1000)
        second = channels.transfer(0, 1000)
        other = channels.transfer(1, 1000)
        assert first == (0, 1000)
        assert second == (1000, 2000)
        assert other == (0, 1000)  # independent channel

    def test_channel_of_die_wraps(self):
        channels = ChannelArray(Simulator(), 4, mbps=800)
        assert channels.channel_of_die(5) == 1

    def test_not_before(self):
        channels = ChannelArray(Simulator(), 1, mbps=1000)
        assert channels.transfer(0, 500, not_before=2000) == (2000, 2500)

    def test_observer_called(self):
        sim = Simulator()
        seen = []
        channels = ChannelArray(sim, 1, 1000, observer=lambda s, e: seen.append((s, e)))
        channels.transfer(0, 1000)
        assert seen == [(0, 1000)]

    def test_utilization(self):
        sim = Simulator()
        channels = ChannelArray(sim, 2, mbps=1000)
        channels.transfer(0, 500)
        assert channels.utilization(1000) == pytest.approx(0.25)

    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelArray(Simulator(), 0, 800)
        with pytest.raises(ValueError):
            ChannelArray(Simulator(), 1, 0)
        with pytest.raises(ValueError):
            ChannelArray(Simulator(), 1, 800).transfer(1, 10)


class TestPowerMeter:
    def make_meter(self, dies_per_op=1, **overrides):
        sim = Simulator()
        params = PowerParams(
            idle_w=4.0, read_op_w=0.5, program_op_w=1.0, erase_op_w=2.0,
            transfer_w=0.25,
        )
        params = dataclasses.replace(params, **overrides)
        return sim, PowerMeter(sim, params, dies_per_op=dies_per_op)

    def test_constant_power(self):
        _, meter = self.make_meter()
        assert meter.average_watts(1000) == pytest.approx(4.0)

    def test_step_change(self):
        sim, meter = self.make_meter(idle_w=2.0, program_op_w=4.0)
        meter.observe_op(OpKind.PROGRAM, 500, 1500)
        sim.run(until=1000)
        # 500ns at 2W + 500ns at 6W = mean 4W.
        assert meter.average_watts(1000) == pytest.approx(4.0)

    def test_series_captures_transitions(self):
        sim, meter = self.make_meter(idle_w=1.0, read_op_w=4.0)
        meter.observe_op(OpKind.READ, 10, 20)
        sim.run(until=20)
        assert len(meter.series) == 2
        assert list(meter.series.values) == [5.0, 1.0]

    def test_idle_power(self):
        sim, meter = self.make_meter()
        sim.run(until=1000)
        assert meter.average_watts(1000) == pytest.approx(4.0)

    def test_single_read_op(self):
        sim, meter = self.make_meter()
        meter.observe_op(OpKind.READ, 0, 500)
        sim.run(until=1000)
        # 500ns at 4.5W, 500ns at 4.0W.
        assert meter.average_watts(1000) == pytest.approx(4.25)

    def test_super_channel_pair_counts_twice(self):
        sim, meter = self.make_meter(dies_per_op=2)
        meter.observe_op(OpKind.PROGRAM, 0, 1000)
        sim.run(until=1000)
        assert meter.average_watts(1000) == pytest.approx(4.0 + 2.0)

    def test_overlapping_ops_add(self):
        sim, meter = self.make_meter()
        meter.observe_op(OpKind.READ, 0, 1000)
        meter.observe_op(OpKind.ERASE, 0, 1000)
        meter.observe_transfer(0, 1000)
        sim.run(until=1000)
        assert meter.average_watts(1000) == pytest.approx(4.0 + 0.5 + 2.0 + 0.25)

    def test_instantaneous_power_tracks_transitions(self):
        sim, meter = self.make_meter()
        meter.observe_op(OpKind.PROGRAM, 100, 200)
        sim.run(until=150)
        assert meter.instantaneous_watts() == pytest.approx(5.0)
        sim.run(until=250)
        assert meter.instantaneous_watts() == pytest.approx(4.0)

    def test_zero_length_op_ignored(self):
        sim, meter = self.make_meter()
        meter.observe_op(OpKind.READ, 100, 100)
        sim.run()
        assert meter.instantaneous_watts() == pytest.approx(4.0)

    def test_series_records_transitions(self):
        sim, meter = self.make_meter()
        meter.observe_op(OpKind.READ, 0, 100)
        sim.run(until=100)
        assert len(meter.series) == 2


class _EventMeter:
    """Reference: the meter as an event-queue observer, booking each
    interval as two sim callbacks and integrating as they fire."""

    def __init__(self, sim, params, dies_per_op):
        self.sim = sim
        self.params = params
        self.dies_per_op = dies_per_op
        self.active = {OpKind.READ: 0, OpKind.PROGRAM: 0, OpKind.ERASE: 0}
        self.transfers = 0
        self.last_t = 0
        self.last_w = params.idle_w
        self.energy = 0.0
        self.series = TimeSeries("power")

    def observe_op(self, kind, start, end):
        if end <= start:
            return
        self.sim.schedule_at(max(start, self.sim.now), self._shift, kind, 1)
        self.sim.schedule_at(max(end, self.sim.now), self._shift, kind, -1)

    def observe_transfer(self, start, end):
        self.observe_op(None, start, end)

    def _shift(self, kind, delta):
        if kind is None:
            self.transfers += delta
        else:
            self.active[kind] += delta
        watts = self.instantaneous_watts()
        now = self.sim.now
        self.energy += self.last_w * (now - self.last_t)
        self.last_t, self.last_w = now, watts
        self.series.record(now, watts)

    def instantaneous_watts(self):
        params = self.params
        per_op = {
            OpKind.READ: params.read_op_w,
            OpKind.PROGRAM: params.program_op_w,
            OpKind.ERASE: params.erase_op_w,
        }
        dynamic = sum(
            count * per_op[kind] * self.dies_per_op
            for kind, count in self.active.items()
        )
        dynamic += self.transfers * params.transfer_w
        return params.idle_w + dynamic

    def average_watts(self, until_ns):
        if until_ns <= 0:
            return self.last_w
        total = self.energy + self.last_w * max(0, until_ns - self.last_t)
        return total / until_ns


#: One step of a ledger scenario: book an op (kind) or a transfer (None)
#: at an offset from the current instant — negative offsets book an
#: interval whose start the clock has already passed, and a coarse grid
#: makes same-instant ties common — or advance the clock.
_BOOKINGS = st.tuples(
    st.sampled_from([OpKind.READ, OpKind.PROGRAM, OpKind.ERASE, None]),
    st.integers(min_value=-3, max_value=6).map(lambda k: k * 100),
    st.integers(min_value=-1, max_value=5).map(lambda k: k * 100),
)
_CHECKPOINTS = st.integers(min_value=0, max_value=5).map(lambda k: k * 100)
#: Weights whose float sums depend on the order they are added in
#: (0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1).
_ORDER_SENSITIVE = PowerParams(
    idle_w=0.1, read_op_w=0.1, program_op_w=0.2, erase_op_w=0.3, transfer_w=0.07,
)


class TestPowerLedgerMatchesEventMeter:
    @settings(max_examples=200, deadline=None)
    @given(
        # Three bookings per checkpoint, so intervals of every kind overlap.
        st.lists(
            st.one_of(_BOOKINGS, _BOOKINGS, _BOOKINGS, _CHECKPOINTS),
            min_size=8, max_size=60,
        ),
        st.sampled_from([1, 2]),
        st.sampled_from([PowerParams(), _ORDER_SENSITIVE]),
    )
    @example(
        [(OpKind.READ, 0, 500), (OpKind.PROGRAM, 0, 500), (OpKind.ERASE, 0, 500), 100],
        1,
        _ORDER_SENSITIVE,
    )
    def test_ledger_equals_event_driven_reference(self, steps, dies_per_op, params):
        ref_sim, sim = Simulator(), Simulator()
        reference = _EventMeter(ref_sim, params, dies_per_op)
        meter = PowerMeter(sim, params, dies_per_op=dies_per_op)
        horizon = 0

        def check():
            assert meter.series.times.tolist() == reference.series.times.tolist()
            assert meter.series.values.tolist() == reference.series.values.tolist()
            assert meter.instantaneous_watts() == reference.instantaneous_watts()
            assert meter.average_watts(sim.now) == reference.average_watts(sim.now)

        for step in steps:
            if isinstance(step, int):
                sim.run(until=sim.now + step)
                ref_sim.run(until=ref_sim.now + step)
                assert sim.now == ref_sim.now
                check()
                continue
            kind, offset, duration = step
            start = max(0, sim.now + offset)
            end = start + duration
            horizon = max(horizon, end)
            pending = sim.pending_count
            if kind is None:
                meter.observe_transfer(start, end)
                reference.observe_transfer(start, end)
            else:
                meter.observe_op(kind, start, end)
                reference.observe_op(kind, start, end)
            assert sim.pending_count == pending
        sim.run(until=max(horizon, sim.now))
        ref_sim.run(until=sim.now)
        check()
        assert meter.instantaneous_watts() == params.idle_w
