"""The recorder protocol every :mod:`repro.obs` recorder follows.

A recorder exposes four members, and the
:class:`~repro.obs.core.Observability` bundle drives all of them by
looping over its enabled recorders:

* ``enabled`` — whether the recorder collects anything;
* ``new_sim()`` — a fresh simulator attached to the bundle;
* ``label_device(label)`` — the current simulator runs against the
  device named ``label``;
* ``absorb(other)`` — merge a worker's recorder of the same type.

Recorders that scope their output per simulator (tracer, telemetry,
blame) share :class:`PidScoped`: each fresh simulator gets the next pid,
so back-to-back measurement runs — each restarting the clock at zero —
never alias, and ``absorb`` rebases a worker's pids past this one's.
"""

from __future__ import annotations

from typing import Any, Dict


class Recorder:
    """Protocol defaults: a recorder with no per-simulator state."""

    enabled = True

    def new_sim(self) -> None:
        """A fresh simulator attached to the bundle."""

    def label_device(self, label: str) -> None:
        """The current simulator runs against the device ``label``."""

    def absorb(self, other: Any) -> None:
        """Merge ``other`` (a worker's recorder of this type) into this one."""
        raise NotImplementedError


class PidScoped(Recorder):
    """Per-simulator pid scoping plus the pid -> device-label table."""

    def __init__(self) -> None:
        self._pid = 0
        #: pid -> registry/spec name of the device that sim ran against
        #: (fed by device construction; exporters name each pid by it).
        self.device_labels: Dict[int, str] = {}

    def new_sim(self) -> None:
        self._pid += 1

    @property
    def current_pid(self) -> int:
        return max(1, self._pid)

    def label_device(self, label: str) -> None:
        if label:
            self.device_labels[self.current_pid] = label

    def _rebase(self, other: "PidScoped") -> int:
        """Take over ``other``'s pids and labels past this recorder's.

        Returns the offset to add to ``other``'s pids.  Absorbing worker
        recorders in point order therefore reproduces the pids a serial
        run would have assigned.
        """
        base = self._pid
        for pid, label in sorted(other.device_labels.items()):
            self.device_labels[pid + base] = label
        self._pid += other._pid
        return base
