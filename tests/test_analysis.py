"""Unit tests for aggregation statistics and terminal charts."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.charts import bar_chart, grouped_bar_chart, series_table
from repro.analysis.stats import aggregate, mean


class TestAggregate:
    def test_basic(self):
        a = aggregate([1.0, 2.0, 3.0])
        assert a.mean == 2.0
        assert (a.min, a.max, a.n) == (1.0, 3.0, 3)
        assert a.spread == 2.0

    def test_single_value(self):
        a = aggregate([5.0])
        assert a.mean == a.min == a.max == 5.0
        assert a.spread == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])

    def test_mean_helper(self):
        assert mean([1.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            mean([])

    @given(st.lists(st.floats(0.1, 1e6), min_size=1, max_size=50))
    def test_bounds_property(self, values):
        a = aggregate(values)
        assert a.min <= a.mean <= a.max


class TestCharts:
    def test_bar_chart_contains_labels_and_values(self):
        out = bar_chart("title", {"buddy": aggregate([1.0]),
                                  "mem+llc": aggregate([0.7, 0.8])})
        assert "title" in out
        assert "buddy" in out and "mem+llc" in out
        assert "0.750" in out  # mean of 0.7/0.8
        assert "[0.700 .. 0.800]" in out  # whisker

    def test_bar_chart_empty(self):
        assert "no data" in bar_chart("t", {})

    def test_grouped_chart(self):
        groups = {
            "lbm": {"buddy": aggregate([1.0]), "mem+llc": aggregate([0.7])},
            "art": {"buddy": aggregate([1.0])},
        }
        out = grouped_bar_chart("fig", groups)
        assert "lbm" in out and "art" in out
        assert out.count("buddy") == 2

    def test_grouped_chart_whiskers_and_empty(self):
        out = grouped_bar_chart("fig", {"lbm": {"mem": aggregate([0.7, 0.8])}})
        assert "[0.700 .. 0.800]" in out
        assert grouped_bar_chart("fig", {}) == "fig\n  (no data)"

    def test_series_table_alignment(self):
        out = series_table("t", ["t0", "t1"], {"buddy": [1.0, 2.0]})
        lines = out.splitlines()
        assert "t0" in lines[1] and "buddy" in lines[2]
