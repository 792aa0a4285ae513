"""VTune-style attribution of CPU time and memory instructions.

Every piece of host software work in the simulation is *charged* as a
:class:`~repro.host.costs.StepCost` to a ``(mode, module, function)``
label.  Computed costs (spin shares, the preemption penalty) build a
``StepCost`` too, so its non-negative check covers every booking.  The
experiment harness then renders:

* CPU utilization split user/kernel (Figs. 12, 13, 20) — busy time over
  wall time;
* per-module / per-function cycle breakdowns (Fig. 14);
* normalized load/store counts and per-function instruction breakdowns
  (Figs. 15, 21, 22).

Charging records bookkeeping only; advancing simulated time is the
caller's job.  :meth:`CpuAccounting.charge` returns the step's ``ns``,
so a stack process sums the steps of one *segment* — a run of pure CPU
steps between two real waits (a device submit or completion, a CQE
wait, a poll spin, a sleep, a link send, a fault-plan requeue check) —
and sleeps once for the sum:
``yield sim.sleep(charge(a, ...) + charge(b, ...))``.  Each step is
still booked once, in path order; only the event count falls.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.host.costs import StepCost


class ExecMode(enum.Enum):
    """Privilege mode a cycle is spent in."""

    USER = "user"
    KERNEL = "kernel"

    # Members compare by identity, so hash them by identity too: the C
    # slot instead of ``Enum.__hash__``, which runs in Python on every
    # ``CpuAccounting.charge`` key.  Dict order is insertion order, so
    # nothing that reads the accounts depends on the hash value.
    __hash__ = object.__hash__


@dataclass(frozen=True)
class FunctionProfile:
    """Aggregate cost attributed to one function."""

    mode: ExecMode
    module: str
    function: str
    cycles_ns: int
    loads: int
    stores: int


class CpuAccounting:
    """Accumulates attributed CPU time and memory instructions."""

    def __init__(self) -> None:
        #: ``[ns, loads, stores]`` per label, in first-charge order.
        self._slots: Dict[Tuple[ExecMode, str, str], List[int]] = {}

    # ------------------------------------------------------------------
    def charge(self, step: StepCost, mode: ExecMode, module: str, function: str) -> int:
        """Attribute one step's CPU time and instructions; returns its
        ``ns`` so call sites can sum a segment into one sleep."""
        key = (mode, module, function)
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = [0, 0, 0]
        slot[0] += step.ns
        slot[1] += step.loads
        slot[2] += step.stores
        return step.ns

    # ------------------------------------------------------------------
    # Cycle views
    # ------------------------------------------------------------------
    def busy_ns(self, mode: ExecMode = None) -> int:
        """Total attributed CPU time, optionally filtered by mode."""
        return sum(
            slot[0] for (m, _, _), slot in self._slots.items() if mode is None or m is mode
        )

    def utilization(self, elapsed_ns: int, mode: ExecMode = None) -> float:
        """Busy fraction of ``elapsed_ns`` (one core)."""
        if elapsed_ns <= 0:
            return 0.0
        return min(1.0, self.busy_ns(mode) / elapsed_ns)

    def cycles_by_module(self, mode: ExecMode = None) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for (m, module, _), slot in self._slots.items():
            if mode is None or m is mode:
                out[module] += slot[0]
        return dict(out)

    def cycles_by_function(self, mode: ExecMode = None) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for (m, _, function), slot in self._slots.items():
            if mode is None or m is mode:
                out[function] += slot[0]
        return dict(out)

    def cycle_share_by_function(self, mode: ExecMode = None) -> Dict[str, float]:
        """Fraction of attributed cycles per function (Fig. 14b)."""
        per_function = self.cycles_by_function(mode)
        total = sum(per_function.values())
        if total == 0:
            return {}
        return {fn: ns / total for fn, ns in per_function.items()}

    # ------------------------------------------------------------------
    # Instruction views
    # ------------------------------------------------------------------
    def total_loads(self) -> int:
        return sum(slot[1] for slot in self._slots.values())

    def total_stores(self) -> int:
        return sum(slot[2] for slot in self._slots.values())

    def loads_by_function(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for (_, _, function), slot in self._slots.items():
            out[function] += slot[1]
        return dict(out)

    def stores_by_function(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for (_, _, function), slot in self._slots.items():
            out[function] += slot[2]
        return dict(out)

    def load_share_by_function(self) -> Dict[str, float]:
        per_function = self.loads_by_function()
        total = sum(per_function.values())
        if total == 0:
            return {}
        return {fn: count / total for fn, count in per_function.items()}

    def store_share_by_function(self) -> Dict[str, float]:
        per_function = self.stores_by_function()
        total = sum(per_function.values())
        if total == 0:
            return {}
        return {fn: count / total for fn, count in per_function.items()}

    # ------------------------------------------------------------------
    def profiles(self) -> list:
        """All function profiles, largest cycle consumers first."""
        rows = [
            FunctionProfile(
                mode=mode,
                module=module,
                function=function,
                cycles_ns=ns,
                loads=loads,
                stores=stores,
            )
            for (mode, module, function), (ns, loads, stores) in self._slots.items()
        ]
        rows.sort(key=lambda row: row.cycles_ns, reverse=True)
        return rows
