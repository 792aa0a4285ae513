"""The simulation engine: a clock and a time-ordered callback queue.

Time is measured in integer nanoseconds.  The queue is one binary heap
of ``(when, seq, callback, args)`` entries: a per-entry sequence number
breaks ties, so callbacks scheduled for the same instant run in FIFO
order, which makes simulations deterministic.  ``docs/sim-engine.md``
records the invariants and the measured traffic that keeps this queue
plain.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, List, Optional, Tuple

from repro.obs.core import current_obs
from repro.sim import sanitize
from repro.sim.events import AnyOf, Event, Timeout
from repro.sim.process import Process
from repro.units import Ns

if TYPE_CHECKING:
    from repro.obs.core import Observability
    from repro.obs.prof import Profiler

#: Process-wide count of executed callbacks, across every simulator ever
#: run in this process.  The perf harness reads deltas of this to report
#: sim-events/second per benchmark figure (meaningful under serial
#: execution; worker processes keep their own counts).  Every dispatched
#: callback counts once, whether ``step()`` or ``run()`` popped it.
events_executed_total = 0

#: One queued callback: ``(when, seq, callback, args)``.
_Entry = Tuple[int, int, Callable, Tuple[Any, ...]]


class Simulator:
    """Discrete-event simulator with a nanosecond integer clock.

    Every simulator carries an observability bundle (``self.obs``): the
    span tracer and metrics registry the stack layers report into.  By
    default it is the currently *installed* bundle (see
    :mod:`repro.obs.core`) — a zero-cost no-op unless something like the
    CLI's ``--trace-out`` installed a recording one.
    """

    def __init__(self, obs: "Optional[Observability]" = None) -> None:
        self.now: int = 0
        #: Min-heap of queued callbacks, ordered by ``(when, seq)``.
        self._queue: List[_Entry] = []
        self._seq: int = 0
        #: Sampled at construction so one test can run sanitized next to
        #: an unsanitized neighbour (see :mod:`repro.sim.sanitize`).
        self.sanitize: bool = sanitize.enabled()
        self.obs = obs if obs is not None else current_obs()
        self.obs.attach(self)
        #: The self-profiler (``repro.obs.prof``), sampled at
        #: construction like ``sanitize``: ``None`` unless the attached
        #: bundle carries an enabled profiler, so the unprofiled hot
        #: path pays exactly one ``is not None`` check per hook.
        profiler = self.obs.profiler
        self._prof: "Optional[Profiler]" = profiler if profiler.enabled else None

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def schedule(self, delay: Ns, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` ``delay`` ns from now."""
        self.schedule_at(self.now + int(delay), callback, *args)

    def schedule_at(self, when: int, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` at absolute time ``when``."""
        now = self.now
        if when < now:
            raise ValueError(f"cannot schedule in the past: {when} < {now}")
        self._seq += 1
        heapq.heappush(self._queue, (when, self._seq, callback, args))
        if self._prof is not None:
            self._prof.note_insert(now, when, len(self._queue))

    def post(self, callback: Callable, *args: Any) -> None:
        """Run ``callback(*args)`` at the current instant, after
        everything already queued for it (a zero-delay microtask).

        Equivalent to ``schedule(0, ...)`` but skips the timestamp
        arithmetic; process trampolines resume through this path.
        """
        now = self.now
        self._seq += 1
        heapq.heappush(self._queue, (now, self._seq, callback, args))
        if self._prof is not None:
            self._prof.note_insert(now, now, len(self._queue))

    # ------------------------------------------------------------------
    # Event/process factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: Ns, value: Any = None) -> Timeout:
        """Create an event that fires ``delay`` ns from now."""
        return Timeout(self, int(delay), value)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Create an event that fires when the first of ``events`` fires."""
        return AnyOf(self, events)

    def process(self, generator: Iterator) -> Process:
        """Start a new process driving ``generator``.

        The generator yields :class:`~repro.sim.events.Event` instances
        (including timeouts and other processes) and is resumed with each
        event's value.
        """
        return Process(self, generator)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the next scheduled callback.  Returns False if none remain."""
        global events_executed_total
        queue = self._queue
        if not queue:
            return False
        when, _seq, callback, args = heapq.heappop(queue)
        if self.sanitize:
            sanitize.check_clock(self.now, when)
        self.now = when
        events_executed_total += 1
        prof = self._prof
        if prof is None:
            callback(*args)
        else:
            prof.dispatch(when, callback, args, len(queue))
        return True

    def run(self, until: Optional[int] = None) -> None:
        """Run until the queue drains or the clock would pass ``until``.

        With ``until`` given, every callback due at or before ``until``
        runs — including ones posted at ``until`` while it is being
        drained — and the clock then lands exactly on ``until`` (later
        callbacks stay queued for a further ``run`` call).
        """
        global events_executed_total
        if until is not None:
            until = int(until)
            if until < self.now:
                raise ValueError(f"cannot run backwards: {until} < {self.now}")
        queue = self._queue
        prof = self._prof
        pop = heapq.heappop
        while queue:
            if until is not None and queue[0][0] > until:
                break
            when, _seq, callback, args = pop(queue)
            if self.sanitize:
                sanitize.check_clock(self.now, when)
            self.now = when
            events_executed_total += 1
            if prof is None:
                callback(*args)
            else:
                prof.dispatch(when, callback, args, len(queue))
        if until is not None and until > self.now:
            self.now = until

    def run_until_event(self, event: Event) -> None:
        """Run until ``event`` triggers or the queue drains."""
        while not event.triggered and self.step():
            pass

    @property
    def pending_count(self) -> int:
        """Number of callbacks still queued."""
        return len(self._queue)
