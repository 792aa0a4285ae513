"""Time-series recording for the GC / power experiments (Figs. 7b and 8).

:class:`TimeSeries` stores raw ``(time, value)`` points.
:class:`WindowedAverage` buckets points into fixed windows and reports the
per-window mean — exactly how the paper's time-series plots are drawn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


class TimeSeries:
    """Raw ``(t_ns, value)`` samples in arrival order."""

    def __init__(self, name: str = "series") -> None:
        self.name = name
        self._times: List[int] = []
        self._values: List[float] = []

    def record(self, t_ns: int, value: float) -> None:
        if self._times and t_ns < self._times[-1]:
            raise ValueError("time series records must be non-decreasing in time")
        self._times.append(int(t_ns))
        self._values.append(float(value))

    def __len__(self) -> int:
        return len(self._times)

    @property
    def times(self) -> np.ndarray:
        return np.asarray(self._times, dtype=np.int64)

    @property
    def values(self) -> np.ndarray:
        return np.asarray(self._values, dtype=np.float64)

    def windowed(self, window_ns: int) -> "WindowedAverage":
        """Aggregate into ``window_ns``-wide buckets of per-window means."""
        return WindowedAverage.from_points(self._times, self._values, window_ns)


@dataclass(frozen=True)
class WindowedAverage:
    """Per-window mean values; the x axis of a time-series figure."""

    window_ns: int
    starts_ns: Tuple[int, ...]
    means: Tuple[float, ...]

    @classmethod
    def from_points(
        cls, times: Sequence[int], values: Sequence[float], window_ns: int
    ) -> "WindowedAverage":
        if window_ns <= 0:
            raise ValueError("window must be positive")
        if not times:
            return cls(window_ns=window_ns, starts_ns=(), means=())
        times_arr = np.asarray(times, dtype=np.int64)
        values_arr = np.asarray(values, dtype=np.float64)
        buckets = times_arr // window_ns
        starts: List[int] = []
        means: List[float] = []
        for bucket in np.unique(buckets):
            mask = buckets == bucket
            starts.append(int(bucket) * window_ns)
            means.append(float(values_arr[mask].mean()))
        return cls(window_ns=window_ns, starts_ns=tuple(starts), means=tuple(means))

    def __len__(self) -> int:
        return len(self.starts_ns)

