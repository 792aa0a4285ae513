"""Measurement utilities: latency distributions and time series."""

from repro.stats.latency import LatencyRecorder, LatencySummary
from repro.stats.timeseries import TimeSeries, WindowedAverage

__all__ = [
    "LatencyRecorder",
    "LatencySummary",
    "TimeSeries",
    "WindowedAverage",
]
