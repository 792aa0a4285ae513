"""Tests for CPU cycle / instruction accounting and the cost table."""

import dataclasses

import pytest

from repro.host import CpuAccounting, ExecMode, SoftwareCosts, StepCost
from repro.sim import engine
from repro.sim.engine import Simulator


def step(ns, loads=0, stores=0):
    return StepCost(ns=ns, loads=loads, stores=stores)


class TestCharging:
    def test_charge_returns_duration(self):
        accounting = CpuAccounting()
        assert accounting.charge(step(500), ExecMode.KERNEL, "vfs", "syscall") == 500

    def test_negative_rejected(self):
        accounting = CpuAccounting()
        for ns, loads, stores in [(-1, 0, 0), (1, -1, 0), (1, 0, -1)]:
            with pytest.raises(ValueError):
                accounting.charge(step(ns, loads, stores), ExecMode.USER, "fio", "x")
        assert accounting.profiles() == []

    def test_segment_books_like_single_steps(self):
        """One timeout for a run of charges books exactly what charging
        and waiting step by step does: same cycles, loads, stores and
        first-charge order, the same end time, and one event, not six."""
        costs = SoftwareCosts()
        run = [
            (costs.user_io_prep, ExecMode.USER, "fio", "fio_rw"),
            (costs.syscall_entry, ExecMode.KERNEL, "vfs", "syscall"),
            (costs.vfs_submit, ExecMode.KERNEL, "vfs", "vfs_rw"),
            (costs.blkmq_submit, ExecMode.KERNEL, "blk-mq", "blk_mq_make_request"),
            (costs.syscall_exit, ExecMode.KERNEL, "vfs", "syscall"),
            (step(7, 3, 2), ExecMode.USER, "fio", "fio_rw"),
        ]

        def one_by_one(sim, accounting):
            for booking in run:
                yield sim.timeout(accounting.charge(*booking))

        def segment(sim, accounting):
            ns = 0
            for booking in run:
                ns += accounting.charge(*booking)
            yield sim.timeout(ns)
            return ns

        outcomes = []
        for process in (one_by_one, segment):
            sim, accounting = Simulator(), CpuAccounting()
            proc = sim.process(process(sim, accounting))
            before = engine.events_executed_total
            sim.run()
            outcomes.append(
                (sim.now, engine.events_executed_total - before, proc.value,
                 accounting.profiles())
            )
        (steps_end, steps_events, _, steps_profiles), (end, events, total, profiles) = outcomes
        assert total == end == steps_end == 1557
        assert (steps_events, events) == (1 + len(run), 2)  # + the process start
        assert profiles == steps_profiles
        assert [(p.mode, p.module, p.function) for p in profiles] == [
            (ExecMode.USER, "fio", "fio_rw"),
            (ExecMode.KERNEL, "vfs", "syscall"),  # ties keep first-charge order
            (ExecMode.KERNEL, "blk-mq", "blk_mq_make_request"),
            (ExecMode.KERNEL, "vfs", "vfs_rw"),
        ]
        syscall = profiles[1]
        assert (syscall.cycles_ns, syscall.loads, syscall.stores) == (300, 47, 33)

    def test_busy_by_mode(self):
        accounting = CpuAccounting()
        accounting.charge(step(300), ExecMode.USER, "fio", "rw")
        accounting.charge(step(700), ExecMode.KERNEL, "vfs", "syscall")
        assert accounting.busy_ns() == 1000
        assert accounting.busy_ns(ExecMode.USER) == 300
        assert accounting.busy_ns(ExecMode.KERNEL) == 700

    def test_utilization(self):
        accounting = CpuAccounting()
        accounting.charge(step(250), ExecMode.KERNEL, "vfs", "syscall")
        assert accounting.utilization(1000) == 0.25
        assert accounting.utilization(1000, ExecMode.USER) == 0.0
        assert accounting.utilization(0) == 0.0

    def test_utilization_caps_at_one(self):
        accounting = CpuAccounting()
        accounting.charge(step(5000), ExecMode.KERNEL, "vfs", "syscall")
        assert accounting.utilization(1000) == 1.0


class TestBreakdowns:
    def make_populated(self):
        accounting = CpuAccounting()
        accounting.charge(step(600, 60, 20), ExecMode.KERNEL, "blk-mq", "blk_mq_poll")
        accounting.charge(step(200, 30, 10), ExecMode.KERNEL, "nvme-driver", "nvme_poll")
        accounting.charge(step(200, 10, 10), ExecMode.KERNEL, "vfs", "syscall")
        accounting.charge(step(100, 5, 5), ExecMode.USER, "fio", "fio_rw")
        return accounting

    def test_cycles_by_module(self):
        by_module = self.make_populated().cycles_by_module(ExecMode.KERNEL)
        assert by_module == {"blk-mq": 600, "nvme-driver": 200, "vfs": 200}

    def test_cycle_share_by_function(self):
        shares = self.make_populated().cycle_share_by_function(ExecMode.KERNEL)
        assert shares["blk_mq_poll"] == pytest.approx(0.6)
        assert shares["nvme_poll"] == pytest.approx(0.2)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_instruction_totals(self):
        accounting = self.make_populated()
        assert accounting.total_loads() == 105
        assert accounting.total_stores() == 45

    def test_load_share_by_function(self):
        shares = self.make_populated().load_share_by_function()
        assert shares["blk_mq_poll"] == pytest.approx(60 / 105)
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_empty_shares(self):
        assert CpuAccounting().cycle_share_by_function() == {}
        assert CpuAccounting().load_share_by_function() == {}

    def test_profiles_sorted_by_cycles(self):
        profiles = self.make_populated().profiles()
        assert profiles[0].function == "blk_mq_poll"
        assert profiles[0].loads == 60


class TestSoftwareCosts:
    def test_step_cost_validation(self):
        with pytest.raises(ValueError):
            StepCost(ns=-1)
        with pytest.raises(ValueError):
            StepCost(ns=1, loads=-2)

    def test_derived_periods(self):
        costs = SoftwareCosts()
        assert costs.kernel_poll_iter_ns == (
            costs.blk_mq_poll_iter.ns + costs.nvme_poll_iter.ns
        )
        assert costs.spdk_iter_ns == (
            costs.spdk_outer_iter.ns
            + costs.spdk_inner_iter.ns
            + costs.spdk_check_enabled_iter.ns
        )

    def test_submit_path_sums_steps(self):
        costs = SoftwareCosts()
        expected = (
            costs.syscall_entry.ns + costs.vfs_submit.ns + costs.blkmq_submit.ns
            + costs.nvme_driver_submit.ns + costs.doorbell_write.ns
        )
        assert costs.submit_path_ns == expected

    def test_interrupt_completion_includes_wakeup(self):
        costs = SoftwareCosts()
        assert costs.interrupt_completion_ns > costs.irq_delivery_ns

    def test_costs_are_immutable_but_replaceable(self):
        costs = SoftwareCosts()
        with pytest.raises(dataclasses.FrozenInstanceError):
            costs.irq_delivery_ns = 0
        variant = dataclasses.replace(costs, irq_delivery_ns=123)
        assert variant.irq_delivery_ns == 123

    def test_spdk_iterates_faster_than_kernel_poll(self):
        """The structural fact behind Fig. 21: the user-space loop is an
        order of magnitude tighter than blk_mq_poll + nvme_poll."""
        costs = SoftwareCosts()
        assert costs.spdk_iter_ns * 5 < costs.kernel_poll_iter_ns
