"""Device power model.

A wall-socket view: idle floor plus dynamic power per active flash
operation and per active channel transfer.  Each die and channel hands
the meter an operation's ``(kind, start, end)`` interval when it books
it; the meter keeps the two transitions in its own ledger and settles
them, in time order, into piecewise-constant power and its integral,
exactly what the paper's Figures 7a/8 plot.  It only reads ``sim.now``
and puts nothing on the event queue: observers book intervals
analytically, and only simulated work rides the queue.

Calibration targets (paper Section IV-D2): idle ~3.8 W, read workloads
~4.1 W on both devices, async writes ~30 % lower on the ULL SSD than the
NVMe SSD (SLC-like Z-NAND programs in fewer incremental steps than MLC),
NVMe power *dips* during GC while ULL GC costs ~12 % extra.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Tuple

from repro.flash.chip import OpKind
from repro.sim.engine import Simulator
from repro.stats.timeseries import TimeSeries

#: Ledger slot of each flash op kind; transfers count in the last slot.
_OP_SLOT = {OpKind.READ: 0, OpKind.PROGRAM: 1, OpKind.ERASE: 2}
_TRANSFER_SLOT = 3


@dataclass(frozen=True)
class PowerParams:
    """Static and per-activity power (watts)."""

    idle_w: float = 3.8
    read_op_w: float = 0.010  # array sensing, per physical die
    program_op_w: float = 0.150  # per physical die (MLC default)
    erase_op_w: float = 0.120  # per physical die
    transfer_w: float = 0.020  # per active channel transfer


class PowerMeter:
    """Counts active operations and integrates instantaneous power.

    Booked transitions wait in a heap keyed ``(when, order)``: ``order``
    is the booking sequence, begin before end, so transitions at the
    same instant settle first-booked first.  Each observe call first
    settles everything up to ``sim.now`` (later bookings are never
    earlier than that), which keeps the heap at in-flight size; reads
    settle up to the instant they ask about.
    """

    def __init__(
        self,
        sim: Simulator,
        params: PowerParams,
        *,
        dies_per_op: int = 1,
    ) -> None:
        self.sim = sim
        self.params = params
        self.dies_per_op = dies_per_op
        #: Active reads, programs, erases and channel transfers.
        self._counts = [0, 0, 0, 0]
        #: Booked, unsettled transitions: ``(when, order, slot, delta)``.
        self._pending: List[Tuple[int, int, int, int]] = []
        self._order = 0
        self._last_t = 0
        self._last_w = params.idle_w
        self._energy = 0.0  # watt-nanoseconds
        self._series = TimeSeries("power")

    # ------------------------------------------------------------------
    def observe_op(self, kind: OpKind, start: int, end: int) -> None:
        """Register a flash array operation (the FlashDie observer hook)."""
        if end <= start:
            return
        self._book(_OP_SLOT[kind], start, end)

    def observe_transfer(self, start: int, end: int) -> None:
        """Register a channel data transfer interval."""
        if end <= start:
            return
        self._book(_TRANSFER_SLOT, start, end)

    # ------------------------------------------------------------------
    def instantaneous_watts(self) -> float:
        self._settle(self.sim.now)
        return self._watts()

    def average_watts(self, until_ns: int) -> float:
        """Mean power from t=0 to ``until_ns``.

        Settles the ledger up to ``until_ns``, so it must not be later
        than any interval still to be booked: pass ``sim.now``.
        """
        self._settle(until_ns)
        if until_ns <= 0:
            return self._last_w
        total = self._energy + self._last_w * max(0, until_ns - self._last_t)
        return total / until_ns

    @property
    def series(self) -> TimeSeries:
        """Raw power-transition time series (for Fig. 8)."""
        self._settle(self.sim.now)
        return self._series

    # ------------------------------------------------------------------
    def _book(self, slot: int, start: int, end: int) -> None:
        now = self.sim.now
        pending = self._pending
        if pending and pending[0][0] <= now:
            self._settle(now)
        order = self._order
        heapq.heappush(pending, (max(start, now), order, slot, 1))
        heapq.heappush(pending, (max(end, now), order + 1, slot, -1))
        self._order = order + 2

    def _settle(self, until: int) -> None:
        """Apply every booked transition due at or before ``until``."""
        pending = self._pending
        counts = self._counts
        record = self._series.record
        while pending and pending[0][0] <= until:
            when, _order, slot, delta = heapq.heappop(pending)
            counts[slot] += delta
            if slot == _TRANSFER_SLOT:
                assert counts[slot] >= 0, "power meter transfer underflow"
            else:
                assert counts[slot] >= 0, "power meter op underflow"
            watts = self._watts()
            self._energy += self._last_w * (when - self._last_t)
            self._last_t = when
            self._last_w = watts
            record(when, watts)

    def _watts(self) -> float:
        params = self.params
        dies = self.dies_per_op
        reads, programs, erases, transfers = self._counts
        dynamic = (
            reads * params.read_op_w * dies
            + programs * params.program_op_w * dies
            + erases * params.erase_op_w * dies
        )
        dynamic += transfers * params.transfer_w
        return params.idle_w + dynamic
