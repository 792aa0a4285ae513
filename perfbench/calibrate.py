"""Host-speed calibration slices, interleaved with the timed I/O phase.

The host this benchmark runs on is shared, and its speed for
interpreter-bound code drifts by tens of percent over seconds to
minutes.  A timed repetition therefore runs a short, fixed calibration
slice after every few timing blocks: a tiny event loop of heap pushes
and pops, generator resumes, method calls and dict updates, the kind of
work the simulator does, but code that no change to the simulator
touches.  A repetition's *host-speed factor* is its mean slice time over
the reference slice time in ``spec.json`` (the mean slice time measured
inside repetitions on the reference host): 1.2 means the host ran 20%
slower than the reference host.  Dividing measured host times by the
factor gives host times at the reference speed, which cancels the drift
the simulator and the slices share.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Dict, Generator, List, Tuple


class _Item:
    __slots__ = ("key", "count")

    def __init__(self, key: int) -> None:
        self.key = key
        self.count = 0

    def bump(self, by: int) -> int:
        self.count += by
        return self.count


def _process(stride: int) -> Generator[int, int, None]:
    now = 0
    while True:
        now = yield now + stride


class Calibrator:
    """Runs slices of ``iterations`` steps over a fixed working set."""

    def __init__(self, iterations: int, items: int = 4096) -> None:
        self.iterations = iterations
        self.items = [_Item(i) for i in range(items)]

    def slice_ns(self) -> int:
        """Host nanoseconds one slice takes (garbage collector paused)."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            started = time.perf_counter_ns()
            items = self.items
            mask = len(items) - 1
            heap: List[Tuple[int, int, Generator[int, int, None]]] = []
            counts: Dict[Tuple[str, int], int] = {}
            for i in range(32):
                process = _process((i * 7919) % 997 + 1)
                next(process)
                heap.append((i, i, process))
            heapq.heapify(heap)
            seq = 32
            index = 1
            for _ in range(self.iterations):
                when, order, process = heapq.heappop(heap)
                index = (index * 1103515245 + 12345) & 0x7FFFFFFF
                item = items[index & mask]
                key = ("m", order % 13)
                counts[key] = counts.get(key, 0) + item.bump(1)
                seq += 1
                heapq.heappush(heap, (process.send(when), seq, process))
            return time.perf_counter_ns() - started
        finally:
            if was_enabled:
                gc.enable()

