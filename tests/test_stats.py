"""Tests for latency recording and time series."""

import pytest
from hypothesis import given, strategies as st

from repro.stats import LatencyRecorder, TimeSeries, WindowedAverage


class TestLatencyRecorder:
    def test_mean_and_count(self):
        recorder = LatencyRecorder()
        recorder.extend([1000, 2000, 3000])
        assert len(recorder) == 3
        assert recorder.mean() == 2000

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-1)

    def test_empty_summary_is_zeroes(self):
        summary = LatencyRecorder().summary()
        assert summary.count == 0
        assert summary.mean_ns == 0.0

    def test_percentile_uses_observed_values(self):
        recorder = LatencyRecorder()
        recorder.extend(range(1, 101))
        # 'higher' interpolation: an actually observed sample.
        assert recorder.percentile(99) in range(1, 101)
        assert recorder.percentile(100) == 100

    def test_five_nines_equals_max_for_small_samples(self):
        recorder = LatencyRecorder()
        recorder.extend([10] * 999 + [5000])
        assert recorder.summary().p99999_ns == 5000

    def test_unit_conversions(self):
        recorder = LatencyRecorder()
        recorder.record(12_600)
        summary = recorder.summary()
        assert summary.mean_us == pytest.approx(12.6)
        assert summary.p99999_us == pytest.approx(12.6)

    def test_str_mentions_count(self):
        recorder = LatencyRecorder()
        recorder.record(1000)
        assert "n=1" in str(recorder.summary())

    @given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1, max_size=200))
    def test_property_summary_ordering(self, samples):
        recorder = LatencyRecorder()
        recorder.extend(samples)
        summary = recorder.summary()
        assert summary.min_ns <= summary.p50_ns <= summary.p99_ns
        assert summary.p99_ns <= summary.p99999_ns <= summary.max_ns
        tolerance = 1e-9 * max(1.0, summary.max_ns)
        assert summary.min_ns - tolerance <= summary.mean_ns <= summary.max_ns + tolerance


class TestTimeSeries:
    def test_records_and_windows(self):
        series = TimeSeries()
        for t, v in [(0, 10.0), (5, 20.0), (12, 30.0), (19, 50.0)]:
            series.record(t, v)
        windowed = series.windowed(10)
        assert windowed.starts_ns == (0, 10)
        assert windowed.means == (15.0, 40.0)

    def test_time_must_be_monotonic(self):
        series = TimeSeries()
        series.record(10, 1.0)
        with pytest.raises(ValueError):
            series.record(5, 2.0)

    def test_empty_window(self):
        assert len(WindowedAverage.from_points([], [], 10)) == 0

    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            WindowedAverage.from_points([0], [1.0], 0)

    @given(
        st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=50),
        st.integers(min_value=1, max_value=1000),
    )
    def test_property_window_means_bounded_by_extremes(self, values, window):
        times = list(range(0, len(values) * 7, 7))
        windowed = WindowedAverage.from_points(times, values, window)
        assert min(windowed.means) >= min(values) - 1e-9
        assert max(windowed.means) <= max(values) + 1e-9

