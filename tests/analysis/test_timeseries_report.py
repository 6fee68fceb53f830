"""Unit tests for time-series helpers and report rendering."""

import datetime

import pytest

from repro.analysis.report import (
    render_series,
    render_split_series,
    render_table,
    sparkline,
)
from repro.analysis.timeseries import DailySeries, percentile
from repro.errors import AnalysisError

D1 = datetime.date(2022, 10, 1)
D2 = datetime.date(2022, 10, 2)
D3 = datetime.date(2022, 10, 3)


class TestDailySeries:
    def test_basic_stats(self):
        series = DailySeries("x", (D1, D2, D3), (1.0, 2.0, 3.0))
        assert len(series) == 3
        assert series.mean() == 2.0

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(AnalysisError):
            DailySeries("x", (D1, D2), (1.0,))

    def test_empty_series_stats_raise(self):
        series = DailySeries("x", (), ())
        with pytest.raises(AnalysisError):
            series.mean()

    def test_percentile(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5
        with pytest.raises(AnalysisError):
            percentile([], 50)


class TestRendering:
    def test_table_contains_cells(self):
        text = render_table(
            ["name", "value"], [["alpha", 1.5], ["beta", 2.0]], title="T"
        )
        assert "T" in text
        assert "alpha" in text and "beta" in text
        assert "1.5" in text

    def test_table_alignment_stable(self):
        text = render_table(["a"], [["xx"], ["y"]])
        lines = text.splitlines()
        assert len({len(line) for line in lines if line.strip()}) <= 2

    def test_sparkline_shape(self):
        line = sparkline([0, 1, 2, 3])
        assert len(line) == 4
        assert line[0] != line[-1]

    def test_sparkline_constant(self):
        assert len(sparkline([5, 5, 5])) == 3

    def test_sparkline_empty(self):
        assert sparkline([]) == ""

    def test_render_series_includes_stats(self):
        series = DailySeries("demo", (D1, D2), (0.25, 0.75))
        text = render_series(series)
        assert "demo" in text
        assert "mean=0.5000" in text

    def test_render_series_downsamples(self):
        dates = tuple(D1 + datetime.timedelta(days=i) for i in range(200))
        series = DailySeries("long", dates, tuple(float(i) for i in range(200)))
        text = render_series(series, width=40)
        # Sparkline portion limited to the requested width.
        spark = text.split(": ")[1].split(" [")[0]
        assert len(spark) == 40

    def test_render_split(self):
        a = DailySeries("A", (D1,), (1.0,))
        b = DailySeries("B", (D1,), (2.0,))
        text = render_split_series(a, b)
        assert text.count("\n") == 1
