"""Tests for figure result containers and the text report renderer."""

import pytest

from repro.core.metrics import FigureResult, Series
from repro.core.report import render_figure, render_sparkline, render_timeseries


def sample_figure() -> FigureResult:
    return FigureResult(
        figure_id="figXX",
        title="Sample",
        x_label="block size",
        y_label="latency (us)",
        series=(
            Series.from_points("ULL Poll", ["4KB", "8KB"], [9.6, 11.0], "us"),
            Series.from_points("ULL Interrupt", ["4KB", "8KB"], [11.8, 13.1], "us"),
        ),
        notes="demo",
        extras={"peak": 1234.5},
    )


class TestSeries:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Series.from_points("s", [1, 2], [1.0])

    def test_value_at(self):
        series = Series.from_points("s", ["a", "b"], [1.0, 2.0])
        assert series.value_at("b") == 2.0
        with pytest.raises(KeyError):
            series.value_at("c")


class TestFigureResult:
    def test_get_exact_label(self):
        figure = sample_figure()
        assert figure.get("ULL Poll").y == (9.6, 11.0)
        with pytest.raises(KeyError):
            figure.get("missing")

    def test_find_by_substrings(self):
        figure = sample_figure()
        assert figure.find("poll").label == "ULL Poll"
        assert figure.find("interrupt").label == "ULL Interrupt"
        with pytest.raises(KeyError):
            figure.find("ULL")  # ambiguous

    def test_labels(self):
        assert sample_figure().labels == ("ULL Poll", "ULL Interrupt")


class TestRenderer:
    def test_render_contains_everything(self):
        text = render_figure(sample_figure())
        assert "figXX" in text
        assert "ULL Poll" in text
        assert "11.8" in text
        assert "demo" in text
        assert "peak" in text

    def test_render_rows_align_with_columns(self):
        text = render_figure(sample_figure())
        lines = [l for l in text.splitlines() if "|" in l]
        assert len(lines) == 3  # header + 2 series


class TestSparkline:
    def test_monotonic_series_renders_ramp(self):
        line = render_sparkline([1, 2, 3, 4, 5, 6, 7, 8])
        assert line[0] == "▁"
        assert line[-1] == "█"
        assert len(line) == 8

    def test_flat_series(self):
        assert render_sparkline([5, 5, 5]) == "▁▁▁"

    def test_empty(self):
        assert render_sparkline([]) == ""

    def test_long_series_bucketed(self):
        line = render_sparkline(list(range(1000)), width=40)
        assert len(line) == 40
        assert line[0] == "▁" and line[-1] == "█"

    def test_render_timeseries_contains_sparkline(self):
        figure = FigureResult(
            figure_id="fx",
            title="demo",
            x_label="t",
            y_label="v",
            series=(
                Series.from_points("lat", list(range(5)), [1, 1, 1, 9, 9], "us"),
            ),
        )
        text = render_timeseries(figure)
        assert "fx" in text and "lat" in text
        assert "█" in text and "▁" in text
        assert "9.00 us" in text
