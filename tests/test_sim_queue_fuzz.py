"""Differential-ordering harness for the simulator's event queue.

:mod:`repro.sim.engine` promises one dispatch order: time order, FIFO
within an instant, and ``run(until)`` landing the clock on ``until``.
These tests check the promise mechanically against
:class:`ReferenceHeapEngine`, the simplest possible implementation of
that contract: seeded random workloads — nested schedules, same-tick
storms, zero-delay ``post`` chains — run through both engines, and the
full ``(time, label)`` dispatch transcripts must match exactly.  The
simulator under test runs in three variants — plain, profiled (every
callback goes through the profiler's ``dispatch`` hook) and sanitized
(``REPRO_SIM_SANITIZE=1``) — so each dispatch branch of ``step()`` and
``run()`` is held to the reference.

The boundary tests pin ``run(until=)`` / ``run_until_event`` behavior
at the cut: every callback due at or before ``until`` runs (same-instant
callbacks never straddle the boundary), and the clock lands exactly on
``until`` when the simulation outlives it.
"""

import heapq
import random

import pytest

from repro.obs.core import Observability
from repro.sim import sanitize
from repro.sim.engine import Simulator


class ReferenceHeapEngine:
    """The ordering oracle: one heap, per-entry sequence numbers.

    Intentionally the simplest possible implementation of the documented
    contract (time order, FIFO within an instant, ``run(until)``
    advances the clock to ``until``).
    """

    def __init__(self):
        self.now = 0
        self._queue = []
        self._seq = 0

    def schedule(self, delay, callback, *args):
        self.schedule_at(self.now + int(delay), callback, *args)

    def schedule_at(self, when, callback, *args):
        if when < self.now:
            raise ValueError(f"cannot schedule in the past: {when} < {self.now}")
        heapq.heappush(self._queue, (when, self._seq, callback, args))
        self._seq += 1

    def post(self, callback, *args):
        self.schedule_at(self.now, callback, *args)

    def step(self):
        if not self._queue:
            return False
        when, _, callback, args = heapq.heappop(self._queue)
        self.now = when
        callback(*args)
        return True

    def run(self, until=None):
        while self._queue:
            when = self._queue[0][0]
            if until is not None and when > until:
                break
            self.step()
        if until is not None and until > self.now:
            self.now = until


class ScriptedWorkload:
    """A deterministic random workload driven by a per-run RNG.

    Each dispatched callback logs ``(now, label)`` and then — decided by
    the RNG — fans out child callbacks with delays drawn from a mix
    heavy in 0 (microtask chains) and same-tick collisions.  Because
    both engines promise the same dispatch order, the RNG draw sequence
    aligns and the scripts stay identical run-to-run.
    """

    DELAYS = (0, 0, 0, 1, 1, 2, 3, 5, 7, 10, 50)

    def __init__(self, engine, seed, budget=400):
        self.engine = engine
        self.rng = random.Random(seed)
        self.budget = budget
        self.log = []
        self.counter = 0

    def seed_initial(self, count=12):
        for _ in range(count):
            self._spawn(self.rng.choice(self.DELAYS))

    def _spawn(self, delay):
        label = self.counter
        self.counter += 1
        if delay == 0 and self.rng.random() < 0.5:
            self.engine.post(self.callback, label)
        else:
            self.engine.schedule(delay, self.callback, label)

    def callback(self, label):
        self.log.append((self.engine.now, label))
        children = self.rng.randint(0, 3)
        for _ in range(children):
            if self.counter >= self.budget:
                return
            self._spawn(self.rng.choice(self.DELAYS))


#: The simulator configurations held to the reference engine.
VARIANTS = ("plain", "profiled", "sanitized")


def variant_cases(seeds):
    """``(variant, seed)`` cases; the plain simulator keeps the bare seed id."""
    return [
        pytest.param(variant, seed, id=str(seed) if variant == "plain" else f"{variant}-{seed}")
        for variant in VARIANTS
        for seed in seeds
    ]


def make_sim(variant, monkeypatch):
    """A fresh simulator whose dispatch takes the ``variant`` branch."""
    if variant == "profiled":
        return Simulator(obs=Observability(tracing=False, metrics=False, profile=True))
    if variant == "sanitized":
        monkeypatch.setenv(sanitize.ENV_VAR, "1")
    return Simulator()


def check_variant(sim, variant, log):
    """The variant really took its branch for every dispatched callback."""
    if variant == "profiled":
        assert sim.obs.profiler.dispatches == len(log)
    if variant == "sanitized":
        assert sim.sanitize


def transcripts(seed, budget=400, until=None, sim=None):
    runs = []
    for engine in (sim if sim is not None else Simulator(), ReferenceHeapEngine()):
        workload = ScriptedWorkload(engine, seed, budget)
        workload.seed_initial()
        engine.run(until=until)
        runs.append((workload.log, engine.now))
    return runs


@pytest.mark.parametrize("variant, seed", variant_cases(range(10)))
def test_fuzzed_dispatch_order_matches_reference(variant, seed, monkeypatch):
    sim = make_sim(variant, monkeypatch)
    (sim_log, sim_now), (heap_log, heap_now) = transcripts(seed, sim=sim)
    assert sim_log == heap_log
    assert sim_now == heap_now
    assert len(sim_log) >= 12  # the workload actually ran
    check_variant(sim, variant, sim_log)


@pytest.mark.parametrize("variant, seed", variant_cases(range(5)))
def test_fuzzed_run_until_matches_reference(variant, seed, monkeypatch):
    # Stop mid-simulation, then resume: both cuts must agree.
    sim = make_sim(variant, monkeypatch)
    (sim_log, sim_now), (heap_log, heap_now) = transcripts(seed, until=40, sim=sim)
    assert sim_log == heap_log
    assert sim_now == heap_now == 40
    check_variant(sim, variant, sim_log)


@pytest.mark.parametrize("variant, seed", variant_cases(range(5)))
def test_fuzzed_step_interleaving_matches_run(variant, seed, monkeypatch):
    stepped = make_sim(variant, monkeypatch)
    workload = ScriptedWorkload(stepped, seed)
    workload.seed_initial()
    while stepped.step():
        pass
    (run_log, _), _ = transcripts(seed)
    assert workload.log == run_log
    check_variant(stepped, variant, workload.log)


# ----------------------------------------------------------------------
# run(until=) / run_until_event boundaries
# ----------------------------------------------------------------------
class TestRunUntilBoundaries:
    def test_bucket_at_until_drains_whole(self):
        sim = Simulator()
        fired = []
        sim.schedule(10, fired.append, "a")
        sim.schedule(10, fired.append, "b")
        sim.schedule(20, fired.append, "late")
        sim.run(until=10)
        assert fired == ["a", "b"]
        assert sim.now == 10
        assert sim.pending_count == 1

    def test_microtasks_spawned_at_until_still_run(self):
        sim = Simulator()
        fired = []

        def tail():
            fired.append("tail")

        def head():
            fired.append("head")
            sim.post(tail)  # queued at t == until while it drains

        sim.schedule(10, head)
        sim.run(until=10)
        assert fired == ["head", "tail"]

    def test_clock_lands_on_until_between_buckets(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.schedule(30, lambda: None)
        sim.run(until=20)
        assert sim.now == 20
        assert sim.pending_count == 1
        sim.run()
        assert sim.now == 30
        assert sim.pending_count == 0

    def test_resume_after_until_keeps_order(self):
        sim = Simulator()
        fired = []
        for delay in (5, 15, 15, 25):
            sim.schedule(delay, fired.append, delay)
        sim.run(until=15)
        assert fired == [5, 15, 15]
        sim.run()
        assert fired == [5, 15, 15, 25]

    def test_run_backwards_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=5)

    def test_run_until_event_stops_at_trigger(self):
        sim = Simulator()
        target = sim.event()
        sim.schedule(10, lambda: None)
        sim.schedule(20, target.succeed)
        sim.schedule(30, lambda: None)
        # A cut before the target leaves it pending.
        sim.run(until=15)
        assert not target.triggered
        assert sim.now == 15
        # The target's callback is the last one run; later ones stay queued.
        sim.run_until_event(target)
        assert target.triggered
        assert sim.now == 20
        assert sim.pending_count == 1


class TestPendingCount:
    def test_counts_microtask_ring_entries(self):
        sim = Simulator()
        seen = []

        def head():
            sim.post(lambda: None)
            sim.post(lambda: None)
            seen.append(sim.pending_count)

        sim.schedule(0, head)
        sim.schedule(5, lambda: None)
        assert sim.pending_count == 2
        sim.run()
        # Inside head: the two posted entries plus the t=5 callback.
        assert seen == [3]
        assert sim.pending_count == 0

    def test_exact_across_step_and_batch(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(10, lambda: None)
        assert sim.pending_count == 4
        assert sim.step()  # dispatches one of the four t=10 entries
        assert sim.pending_count == 3
        sim.run()
        assert sim.pending_count == 0
        assert not sim.step()
