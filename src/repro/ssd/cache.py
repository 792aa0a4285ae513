"""Controller DRAM: the write buffer and the read cache.

The write buffer is why buffered write latency (a few µs) is far below
tPROG: the host gets its completion as soon as the data lands in DRAM,
and a background flusher commits it to flash.  When the flusher cannot
keep up the buffer fills and writes stall — the queue-depth-dependent
write latency blow-up of Fig. 4a and the GC latency spikes of Fig. 7b.

The read cache (NVMe SSD only; Z-SSD does not need one) is an LRU over
mapping units with a sequential-stream prefetcher.  Random reads at any
realistic capacity ratio miss almost always, exposing raw flash tR —
the paper's explanation for the 82.9 µs random-read latency.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Deque, Dict, List, Optional

from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.resources import Store
from repro.units import Count


class WriteBuffer:
    """Counted DRAM slots with FIFO admission and a flush queue."""

    def __init__(self, sim: Simulator, capacity_units: Count) -> None:
        if capacity_units < 1:
            raise ValueError("write buffer needs at least one slot")
        self.sim = sim
        self.capacity = capacity_units
        self._occupancy = 0
        self._waiters: Deque[Event] = deque()
        self._resident: Dict[int, int] = {}  # lpn -> copies buffered
        self._dirty = Store(sim)
        # Statistics.
        self.stall_count = 0
        self.inserted = 0

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return self._occupancy

    @property
    def is_full(self) -> bool:
        return self._occupancy >= self.capacity

    def contains(self, lpn: int) -> bool:
        """True if ``lpn``'s freshest data is still in DRAM (read hit)."""
        return self._resident.get(lpn, 0) > 0

    # ------------------------------------------------------------------
    def try_reserve(self) -> bool:
        """Take a slot at once if one is free and no writer queues for
        one; returns whether a slot is now held."""
        if self._occupancy < self.capacity and not self._waiters:
            self._occupancy += 1
            return True
        return False

    def reserve(self) -> Event:
        """Acquire a slot; the event fires when one is held."""
        event = Event(self.sim)
        if self.try_reserve():
            event.succeed()
        else:
            self.stall_count += 1
            self._waiters.append(event)
        return event

    def insert(self, lpn: int) -> None:
        """Deposit ``lpn`` into a previously reserved slot."""
        self._resident[lpn] = self._resident.get(lpn, 0) + 1
        self._dirty.put(lpn)
        self.inserted += 1

    def next_dirty(self) -> Event:
        """Blocking take of the next unit to flush (fires with the LPN)."""
        return self._dirty.get()

    def requeue(self, lpn: int) -> None:
        """Put a taken unit back on the flush queue (placement failed).

        The slot and residency are untouched — the unit is still
        buffered, it just could not be placed yet.
        """
        self._dirty.put(lpn)

    def flushed(self, lpn: int) -> None:
        """Mark ``lpn``'s flush complete; frees the slot."""
        count = self._resident.get(lpn, 0)
        if count <= 0:
            raise RuntimeError(f"flushed() for non-resident lpn {lpn}")
        if count == 1:
            del self._resident[lpn]
        else:
            self._resident[lpn] = count - 1
        if self._waiters:
            # Hand the slot straight to the oldest stalled writer.
            self._waiters.popleft().succeed()
        else:
            self._occupancy -= 1

    @property
    def pending_flush(self) -> int:
        return len(self._dirty)


class ReadCache:
    """LRU unit cache with in-flight ("ready at") tracking.

    ``lookup`` returns the time the cached copy becomes usable — a
    prefetched entry still being read from flash is a hit that waits.
    """

    def __init__(self, capacity_units: Count, prefetch_ahead: int = 0) -> None:
        if capacity_units < 0 or prefetch_ahead < 0:
            raise ValueError("capacity and prefetch depth must be >= 0")
        self.capacity = capacity_units
        self.prefetch_ahead = prefetch_ahead
        self._entries: "OrderedDict[int, int]" = OrderedDict()  # lpn -> ready_at
        self._last_lpn: Optional[int] = None
        self._streak = 0
        # Statistics.
        self.hits = 0
        self.misses = 0
        self.prefetches = 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def lookup(self, lpn: int) -> Optional[int]:
        """Ready-at time for ``lpn``, or ``None`` on a miss."""
        if not self.enabled:
            return None
        ready_at = self._entries.get(lpn)
        if ready_at is None:
            self.misses += 1
            return None
        self._entries.move_to_end(lpn)
        self.hits += 1
        return ready_at

    def insert(self, lpn: int, ready_at: int) -> None:
        if not self.enabled:
            return
        self._entries[lpn] = ready_at
        self._entries.move_to_end(lpn)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def note_access(self, lpn: int) -> List[int]:
        """Update the stream detector; returns LPNs to prefetch.

        Detects a sequential run of three or more accesses, then asks the
        controller to stage the next ``prefetch_ahead`` units that are
        not already cached.
        """
        if self._last_lpn is not None and lpn == self._last_lpn + 1:
            self._streak += 1
        else:
            self._streak = 0
        self._last_lpn = lpn
        if not self.enabled or self.prefetch_ahead == 0 or self._streak < 2:
            return []
        wanted = [
            candidate
            for candidate in range(lpn + 1, lpn + 1 + self.prefetch_ahead)
            if candidate not in self._entries
        ]
        self.prefetches += len(wanted)
        return wanted

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
