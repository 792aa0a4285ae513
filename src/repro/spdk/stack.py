"""The SPDK user-space I/O stack.

``sync_io`` is the fio ``spdk`` plugin path: prepare the request in
hugepage-backed buffers, ``nvme_qpair_check_enabled`` (the inline
validity check SPDK performs on every submission — 20 % of its loads,
Fig. 22b), submit straight to the queue pair, then spin in
``spdk_nvme_qpair_process_completions`` /
``nvme_pcie_qpair_process_completions`` until the CQE's phase tag flips.

Everything runs in user mode; the loop never blocks, so the core is
pinned at 100 % (Fig. 20) and the tight ~25 ns iteration generates an
order of magnitude more loads/stores than the kernel's poll (Fig. 21).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Generator, List, Optional, Tuple

from repro.host.accounting import CpuAccounting, ExecMode
from repro.host.costs import DEFAULT_COSTS, SoftwareCosts, StepCost
from repro.nvme.controller import NvmeController, NvmeTimings, PendingCommand
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.spdk.hugepage import HugePageAllocator
from repro.spdk.uio import UioBinding
from repro.ssd.device import IoOp, SsdDevice
from repro.units import Bytes

if TYPE_CHECKING:
    from repro.faults.plan import FaultPlan
    from repro.obs.tracer import IoTrace


class SpdkStack:
    """User-space NVMe driver bound through uio + hugepages."""

    def __init__(
        self,
        sim: Simulator,
        device: SsdDevice,
        *,
        costs: Optional[SoftwareCosts] = None,
        accounting: Optional[CpuAccounting] = None,
        queue_depth: int = 1024,
        nvme_timings: Optional[NvmeTimings] = None,
        hugepages: int = 512,
        faults: "Optional[FaultPlan]" = None,
    ) -> None:
        self.sim = sim
        self.device = device
        self.costs = costs or DEFAULT_COSTS
        self.accounting = accounting or CpuAccounting()
        # Environment setup: steal the device from the kernel, map BARs.
        self.binding = UioBinding()
        self.binding.unbind()
        self.binding.bind_uio()
        self.hugepages = HugePageAllocator(hugepages)
        self.bar_region = self.hugepages.map_bar(16 * 1024)
        self.io_buffers = self.hugepages.allocate(4 * 1024 * 1024, "io-buffers")
        # No ISR from user space: interrupts stay off (Section II-B4).
        controller = NvmeController(sim, device, timings=nvme_timings, faults=faults)
        self.qpair = controller.create_queue_pair(
            depth=queue_depth, interrupts_enabled=False
        )
        registry = sim.obs.registry
        self._m_spin_iters = registry.counter(
            "spdk.poll.spin_iters", help="process_completions loop iterations"
        )
        self._m_spin_ns = registry.counter(
            "spdk.poll.spin_ns", unit="ns", help="time spent in the user-space spin"
        )
        self._t_poll_burn = sim.obs.telemetry.series(
            "spdk.poll.burn", "busy", unit="frac"
        )
        #: When set to a list, sync_io appends per-I/O stage timestamps
        #: ``(start, submitted, cqe, done)`` — the latency-anatomy probe.
        self.stage_log: Optional[List[Tuple[int, int, Optional[int], int]]] = None

    # ------------------------------------------------------------------
    def sync_io(
        self, op: IoOp, offset: Bytes, nbytes: int
    ) -> Generator[Event, Any, int]:
        """Process: one QD-1 I/O through the SPDK fast path.

        Returns the application-observed latency in nanoseconds.
        """
        costs = self.costs
        started = self.sim.now
        tracer = self.sim.obs.tracer
        ctx = (
            tracer.begin_io(op, offset, nbytes, started)
            if tracer.enabled
            else None
        )
        if ctx is not None:
            ctx.phase("submit", started)
        charge = self.accounting.charge
        user = ExecMode.USER
        ns = charge(costs.spdk_user_prep, user, "spdk", "fio_spdk_plugin")
        ns += charge(costs.spdk_check_enabled_iter, user, "spdk", "nvme_qpair_check_enabled")
        ns += charge(costs.spdk_submit, user, "spdk", "spdk_nvme_ns_cmd_rw")
        yield self.sim.sleep(ns)
        pending = self.qpair.submit(op, offset, nbytes, trace=ctx)
        submitted = self.sim.now
        yield from self._process_completions(pending)
        yield self.sim.sleep(charge(costs.spdk_complete, user, "spdk", "io_complete_cb"))
        if self.stage_log is not None:
            self.stage_log.append(
                (started, submitted, pending.cqe_ns, self.sim.now)
            )
        if ctx is not None:
            ctx.finish(self.sim.now)
        return self.sim.now - started

    def submit_async(
        self, op: IoOp, offset: Bytes, nbytes: int, *, trace: "Optional[IoTrace]" = None
    ) -> PendingCommand:
        """Queue an I/O without waiting (SPDK is natively asynchronous)."""
        costs = self.costs
        submit = costs.spdk_submit
        self.accounting.charge(
            StepCost(
                submit.ns, submit.loads + costs.spdk_check_enabled_iter.loads, submit.stores
            ),
            ExecMode.USER,
            "spdk",
            "spdk_nvme_ns_cmd_rw",
        )
        return self.qpair.submit(op, offset, nbytes, trace=trace)

    # ------------------------------------------------------------------
    def _process_completions(
        self, pending: PendingCommand
    ) -> Generator[Event, Any, None]:
        """Spin in the user-space completion loop until the CQE lands."""
        costs = self.costs
        started = self.sim.now
        cqe_event = pending.cqe_event
        if not cqe_event.triggered:
            yield cqe_event
        # The iteration that observes the phase flip.
        detect = costs.spdk_iter_ns
        if pending.trace is not None:
            # CQE visible: the remaining time is user-space detection.
            pending.trace.phase("completion_poll", pending.cqe_ns)
            pending.trace.wait(
                "spdk.poller", "poll_gap", pending.cqe_ns, pending.cqe_ns + detect
            )
        yield self.sim.sleep(detect)
        self._charge_spin(self.sim.now - started)
        self._t_poll_burn.add_interval(started, self.sim.now)

    def _charge_spin(self, spun_ns: int) -> None:
        """Attribute spin time/instructions to the three SPDK functions."""
        costs = self.costs
        period = costs.spdk_iter_ns
        iters = max(1, round(spun_ns / period))
        self._m_spin_iters.inc(iters)
        self._m_spin_ns.inc(spun_ns)
        steps = (
            (costs.spdk_outer_iter, "spdk_nvme_qpair_process_completions"),
            (costs.spdk_inner_iter, "nvme_pcie_qpair_process_completions"),
            (costs.spdk_check_enabled_iter, "nvme_qpair_check_enabled"),
        )
        charged = 0
        for index, (step, function) in enumerate(steps):
            if index == len(steps) - 1:
                ns = spun_ns - charged  # remainder keeps totals exact
            else:
                ns = int(round(spun_ns * step.ns / period))
                charged += ns
            self.accounting.charge(
                StepCost(max(0, ns), iters * step.loads, iters * step.stores),
                ExecMode.USER,
                "spdk",
                function,
            )
