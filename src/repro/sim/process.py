"""Generator-driven processes.

A process wraps a generator that yields events.  Each time a yielded event
triggers, the process resumes with the event's value; if the event failed,
the exception is thrown into the generator.  A process is itself an event
that triggers with the generator's return value, so processes can wait on
each other by yielding them.

A process that only needs to let time pass yields
``sim.sleep(delay)`` instead of an event: the call books the process's
own wake-up on the queue and returns :data:`SLEEP`, so no event object,
callback list or trigger chain is built for a plain delay.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.sim import sanitize
from repro.sim.events import Event


class _Sleep:
    __slots__ = ()

    def __repr__(self) -> str:
        return "<SLEEP>"


#: What a process yields after :meth:`repro.sim.engine.Simulator.sleep`
#: booked its wake-up; the process yields nothing else that is not an
#: event.
SLEEP = _Sleep()


class Interrupted(Exception):
    """Thrown into a process that was interrupted from the outside."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Process(Event):
    """An event representing the lifetime of a running generator."""

    __slots__ = ("_generator", "_waiting_on", "_sleep_seq")

    def __init__(self, sim: "Simulator", generator: Iterator) -> None:  # noqa: F821
        if not hasattr(generator, "send"):
            raise TypeError(
                "process() requires a generator; did you forget to call "
                "the generator function?"
            )
        super().__init__(sim)
        self._generator = generator
        self._waiting_on: Event | None = None
        #: Queue sequence number of the booked sleep wake-up, 0 when the
        #: process is not sleeping; a wake-up carrying any other number
        #: is stale.
        self._sleep_seq = 0
        # Start on the next simulation step so creation order does not
        # matter within a single instant.
        sim.post(self._resume, None, None)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupted` into the process at its yield point."""
        if self.triggered:
            raise RuntimeError("cannot interrupt a finished process")
        # A booked sleep wake-up cannot be taken off the heap; dropping
        # its number turns it into a counted no-op when it pops.
        self._sleep_seq = 0
        waiting_on, self._waiting_on = self._waiting_on, None
        if waiting_on is not None and not waiting_on.triggered:
            # Detach for real: the event we were parked on may still
            # trigger later (a pending timeout, a racing AnyOf), and its
            # callback list must no longer reach us — otherwise every
            # interrupt leaves a live callback that fires as a stale
            # wakeup (pure dispatch overhead the profiler counts).
            waiting_on.remove_callback(self._on_event)
        self.sim.post(self._resume, None, Interrupted(cause))

    # ------------------------------------------------------------------
    def _on_event(self, event: Event) -> None:
        if event is not self._waiting_on:
            # Stale wakeup after an interrupt: pure dispatch overhead,
            # which is exactly what the self-profiler wants to count.
            prof = getattr(self.sim, "_prof", None)
            if prof is not None:
                prof.note_stale()
            return
        self._waiting_on = None
        if event.ok:
            self._resume(event._value, None)  # noqa: SLF001
        else:
            self._resume(None, event._exception)  # noqa: SLF001

    def _wake(self, seq: int) -> None:
        """The queued end of a :meth:`Simulator.sleep`."""
        if seq != self._sleep_seq:
            # Interrupted while asleep: the wake-up outlived its sleep.
            prof = self.sim._prof  # noqa: SLF001
            if prof is not None:
                prof.note_stale()
            return
        self._sleep_seq = 0
        self._resume(None, None)

    def _resume(self, value: Any, exception: BaseException | None) -> None:
        if self._triggered:
            return
        # ``Simulator.sleep`` books the wake-up of the process whose
        # code is running.  A resume can nest (this generator succeeds
        # an event another process waits on), so restore the outer
        # record however the generator step ends.
        sim = self.sim
        outer = sim._active  # noqa: SLF001
        sim._active = self  # noqa: SLF001
        try:
            try:
                if exception is not None:
                    target = self._generator.throw(exception)
                else:
                    target = self._generator.send(value)
            finally:
                sim._active = outer  # noqa: SLF001
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupted:
            # Interrupt not handled by the generator: the process dies
            # quietly (it was cancelled on purpose).
            self.succeed(None)
            return
        problem: str | None
        if self._sleep_seq:
            if target is SLEEP:
                return
            # The booked wake-up would resume this process a second time.
            problem = f"booked a sim.sleep() but yielded {target!r}"
        elif isinstance(target, Event):
            problem = None
        else:
            problem = f"yielded a non-event: {target!r}"
        if problem is not None:
            self._generator.close()
            self.fail(TypeError(f"process {problem}"))
            return
        if sim.sanitize:
            sanitize.check_owner(sim, target, "wait (process yield)")
        self._waiting_on = target
        if target.triggered:
            # Flatten recursion: a ready event resumes us as a same-tick
            # post() instead of recursing synchronously.
            self.sim.post(self._on_event, target)
        else:
            target.add_callback(self._on_event)
