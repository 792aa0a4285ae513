"""The three I/O completion methods (paper Section II-B3, Figs. 9-16).

Each engine is a generator that runs from "command submitted" to "request
completed back through blk-mq", charging CPU time and memory instructions
to the functions the paper's profiler attributes them to.  ``complete``
returns the CPU time of its closing steps, booked but not yet waited, so
the caller folds its own next steps into the same sleep.

* :class:`InterruptEngine` — the process context-switches away; the MSI
  arrives, the ISR runs, the scheduler switches back.
* :class:`PollEngine` — ``blk_mq_poll``/``nvme_poll`` spin on the CQ
  phase tag.  The spin holds the core: every
  ``resched_check_period_ns`` the poller hits a need_resched window and,
  if deferred kernel work is pending, loses ``bg_yield`` — work the
  interrupt path absorbs for free during its idle wait.  That asymmetry
  is why polling's 99.999th percentile is *worse* than interrupts
  (Fig. 11) even though its average is better.
* :class:`HybridPollEngine` — sleeps half the running mean device wait,
  then polls (the Linux 4.10+ ``io_poll_delay`` heuristic).  Device-time
  variance makes the estimate misfire: oversleeping adds the timer
  wake-up to the latency, undersleeping wastes spin — hybrid lands
  between interrupts and pure polling (Fig. 16) while still burning
  half the core (Fig. 12).
"""

from __future__ import annotations

import enum
from typing import Any, Generator, Optional

import numpy as np

from repro.host.accounting import CpuAccounting, ExecMode
from repro.host.costs import SoftwareCosts, StepCost
from repro.kstack.driver import DriverRequest, KernelNvmeDriver
from repro.sim.engine import Simulator
from repro.sim.events import Event


class CompletionMethod(enum.Enum):
    """Selector used by experiment configs."""

    INTERRUPT = "interrupt"
    POLL = "poll"
    HYBRID = "hybrid"


class _EngineBase:
    """Shared plumbing: sim, cost table, profiler, seeded randomness."""

    def __init__(
        self,
        sim: Simulator,
        costs: SoftwareCosts,
        accounting: CpuAccounting,
        *,
        seed: int = 11,
    ) -> None:
        self.sim = sim
        self.costs = costs
        self.accounting = accounting
        self.rng = np.random.default_rng(seed)
        registry = sim.obs.registry
        self._m_spin_iters = registry.counter(
            "kstack.poll.spin_iters", help="CQ poll loop iterations"
        )
        self._m_spin_ns = registry.counter(
            "kstack.poll.spin_ns", unit="ns", help="time spent spinning on the CQ"
        )
        self._m_deferred_ns = registry.counter(
            "kstack.poll.deferred_work_ns",
            unit="ns",
            help="scheduler-fairness penalty absorbed by long spins",
        )
        self._m_ctx_switches = registry.counter(
            "kstack.context_switches", help="switch-away/switch-back pairs halved"
        )
        self._m_isr = registry.counter("kstack.isr_count", help="nvme_irq entries")
        self._t_poll_burn = sim.obs.telemetry.series(
            "kstack.poll.burn", "busy", unit="frac"
        )

    # ------------------------------------------------------------------
    def _spin_until_cqe(
        self, driver_request: DriverRequest
    ) -> Generator[Event, Any, int]:
        """Generator: spin on the CQ until the CQE lands.

        Returns the nanoseconds spent spinning.  Wall time advances to
        one poll iteration past the CQE (the iteration that observes the
        phase-tag flip), plus the scheduler-fairness penalty for spins
        that outlive the grace window: the spinning thread holds the core
        with spin locks taken, so once it exceeds a scheduling quantum it
        loses CPU share to the kernel work it displaced.  Short spins are
        free — which is why polling's *average* wins while its
        *five-nines* (dominated by long device stalls) loses (Fig. 11).
        """
        costs = self.costs
        pending = driver_request.pending
        cqe_event = pending.cqe_event
        started = self.sim.now
        if not cqe_event.triggered:
            yield cqe_event
        if pending.trace is not None:
            # CQE landed; everything from here is completion software.
            pending.trace.phase("completion_poll", pending.cqe_ns)
        detect = costs.kernel_poll_iter_ns
        yield self.sim.sleep(detect)
        spun = self.sim.now - started
        self._charge_spin(spun)
        self._m_spin_ns.inc(spun)
        self._t_poll_burn.add_interval(started, self.sim.now)
        over = spun - costs.poll_preempt_grace_ns
        if over > 0:
            penalty = int(over * costs.poll_preempt_rate)
            density = costs.bg_yield
            self.accounting.charge(
                StepCost(
                    penalty,
                    int(density.loads * penalty / density.ns),
                    int(density.stores * penalty / density.ns),
                ),
                ExecMode.KERNEL,
                "sched",
                "deferred_kernel_work",
            )
            self._m_deferred_ns.inc(penalty)
            if pending.trace is not None:
                pending.trace.annotate(
                    "deferred_kernel_work", self.sim.now, self.sim.now + penalty
                )
            yield self.sim.sleep(penalty)
        return spun

    def _charge_spin(self, spun_ns: int) -> None:
        """Attribute spin time/instructions to blk_mq_poll + nvme_poll."""
        costs = self.costs
        period = costs.kernel_poll_iter_ns
        iters = max(1, round(spun_ns / period))
        self._m_spin_iters.inc(iters)
        blk, nvme = costs.blk_mq_poll_iter, costs.nvme_poll_iter
        blk_share = blk.ns / period
        blk_ns = int(round(spun_ns * blk_share))
        self.accounting.charge(
            StepCost(blk_ns, iters * blk.loads, iters * blk.stores),
            ExecMode.KERNEL,
            "blk-mq",
            "blk_mq_poll",
        )
        self.accounting.charge(
            StepCost(spun_ns - blk_ns, iters * nvme.loads, iters * nvme.stores),
            ExecMode.KERNEL,
            "nvme-driver",
            "nvme_poll",
        )

    def _finish(self, driver: KernelNvmeDriver, driver_request: DriverRequest) -> int:
        """Complete the request through blk-mq (poll flavors); returns
        the completion step's CPU time, booked but not yet waited."""
        completed = driver.nvme_poll(driver_request.blk_request.cookie)
        assert completed is not None, "poll finished before CQE?"
        return self.accounting.charge(
            self.costs.poll_complete, ExecMode.KERNEL, "blk-mq", "blk_mq_complete_request"
        )


class InterruptEngine(_EngineBase):
    """MSI-driven completion: sleep, ISR, wake."""

    method = CompletionMethod.INTERRUPT

    def complete(
        self, driver: KernelNvmeDriver, driver_request: DriverRequest
    ) -> Generator[Event, Any, int]:
        costs = self.costs
        charge = self.accounting.charge
        pending = driver_request.pending
        # Switch away; the core is free for other work while the device runs.
        self._m_ctx_switches.inc()
        yield self.sim.sleep(
            charge(costs.context_switch_out, ExecMode.KERNEL, "sched", "context_switch")
        )
        cqe_event = pending.cqe_event
        if not cqe_event.triggered:
            yield cqe_event
        if pending.trace is not None:
            # CQE landed; MSI flight, ISR, and wake-up follow.
            pending.trace.phase("completion_isr", pending.cqe_ns)
        # MSI flight, then the ISR completes the command.
        self._m_isr.inc()
        yield self.sim.sleep(
            costs.irq_delivery_ns
            + charge(costs.isr, ExecMode.KERNEL, "nvme-driver", "nvme_irq")
        )
        driver.complete_by_cid(driver_request.pending.command.cid)
        ns = charge(costs.context_switch_in, ExecMode.KERNEL, "sched", "context_switch")
        ns += charge(
            costs.blkmq_complete, ExecMode.KERNEL, "blk-mq", "blk_mq_complete_request"
        )
        return ns


class PollEngine(_EngineBase):
    """Pure polled mode: spin from submission to completion."""

    method = CompletionMethod.POLL

    def complete(
        self, driver: KernelNvmeDriver, driver_request: DriverRequest
    ) -> Generator[Event, Any, int]:
        yield from self._spin_until_cqe(driver_request)
        return self._finish(driver, driver_request)


class HybridPollEngine(_EngineBase):
    """Sleep half the mean device wait, then poll.

    The kernel tracks a mean completion time per request class; we keep
    an exponential moving average (weight 1/8, matching the flavor of the
    kernel's statistics) of the submission-to-CQE wait.
    """

    method = CompletionMethod.HYBRID

    #: EMA weight for the wait estimate.
    EMA_WEIGHT = 0.125

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self._mean_wait_ns: Optional[float] = None
        #: Fraction of the estimated wait to sleep (the kernel uses 1/2;
        #: the ablation study varies it).
        self.sleep_fraction = 0.5

    @property
    def mean_wait_ns(self) -> Optional[float]:
        return self._mean_wait_ns

    def complete(
        self, driver: KernelNvmeDriver, driver_request: DriverRequest
    ) -> Generator[Event, Any, int]:
        costs = self.costs
        charge = self.accounting.charge
        wait_started = self.sim.now
        cqe_event = driver_request.pending.cqe_event
        yield self.sim.sleep(
            charge(
                costs.hybrid_timer_setup,
                ExecMode.KERNEL,
                "blk-mq",
                "blk_mq_poll_hybrid_sleep",
            )
        )
        sleep_ns = (
            int(self._mean_wait_ns * self.sleep_fraction)
            if self._mean_wait_ns
            else 0
        )
        if sleep_ns > 0 and not cqe_event.triggered:
            # hrtimer slack: the wake-up lands a little late, sometimes
            # past the CQE — the oversleep the paper measures.
            slack = int(self.rng.integers(0, costs.hybrid_timer_slack_ns + 1))
            slept_from = self.sim.now
            yield self.sim.sleep(sleep_ns + slack)  # core released: no charge
            if driver_request.pending.trace is not None:
                driver_request.pending.trace.annotate(
                    "hybrid_sleep", slept_from, self.sim.now
                )
            ns = charge(costs.hybrid_wakeup, ExecMode.KERNEL, "sched", "timer_wakeup")
            # Poll state comes back cache-cold after the sleep.
            ns += charge(costs.hybrid_cold_detect, ExecMode.KERNEL, "blk-mq", "blk_mq_poll")
            yield self.sim.sleep(ns)
        if cqe_event.triggered:
            # Overslept: the CQE beat us; pay one observing iteration.
            if driver_request.pending.trace is not None:
                driver_request.pending.trace.phase(
                    "completion_poll", driver_request.pending.cqe_ns
                )
            detect = costs.kernel_poll_iter_ns
            yield self.sim.sleep(detect)
            self._charge_spin(detect)
            self._t_poll_burn.add_interval(self.sim.now - detect, self.sim.now)
        else:
            yield from self._spin_until_cqe(driver_request)
        self._update_mean(driver_request, wait_started)
        return self._finish(driver, driver_request)

    def _update_mean(self, driver_request: DriverRequest, wait_started: int) -> None:
        cqe_ns = driver_request.pending.cqe_ns
        observed = (cqe_ns if cqe_ns is not None else self.sim.now) - wait_started
        if self._mean_wait_ns is None:
            self._mean_wait_ns = float(observed)
        else:
            self._mean_wait_ns += self.EMA_WEIGHT * (observed - self._mean_wait_ns)


def make_engine(
    method: CompletionMethod,
    sim: Simulator,
    costs: SoftwareCosts,
    accounting: CpuAccounting,
    *,
    seed: int = 11,
) -> _EngineBase:
    """Build the completion engine for ``method``."""
    engines = {
        CompletionMethod.INTERRUPT: InterruptEngine,
        CompletionMethod.POLL: PollEngine,
        CompletionMethod.HYBRID: HybridPollEngine,
    }
    return engines[method](sim, costs, accounting, seed=seed)
