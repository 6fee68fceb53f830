"""Unit tests for concentration measures."""

import datetime

import pytest

from repro.analysis.concentration import (
    concentration_label,
    daily_hhi_series,
    herfindahl_hirschman_index,
)
from repro.errors import AnalysisError


class TestHHI:
    def test_monopoly_is_one(self):
        assert herfindahl_hirschman_index({"a": 1.0}) == 1.0

    def test_even_market(self):
        shares = {name: 0.25 for name in "abcd"}
        assert herfindahl_hirschman_index(shares) == pytest.approx(0.25)

    def test_normalizes_unnormalized_input(self):
        counts = {"a": 30, "b": 10}
        assert herfindahl_hirschman_index(counts) == pytest.approx(
            0.75**2 + 0.25**2
        )

    def test_more_players_lower_hhi(self):
        few = {name: 1 for name in "ab"}
        many = {name: 1 for name in "abcdefgh"}
        assert herfindahl_hirschman_index(many) < herfindahl_hirschman_index(few)

    def test_zero_share_players_ignored(self):
        assert herfindahl_hirschman_index({"a": 1.0, "b": 0.0}) == 1.0

    def test_empty_market_rejected(self):
        with pytest.raises(AnalysisError):
            herfindahl_hirschman_index({})
        with pytest.raises(AnalysisError):
            herfindahl_hirschman_index({"a": 0.0})

    def test_range(self):
        shares = {"a": 0.5, "b": 0.3, "c": 0.2}
        hhi = herfindahl_hirschman_index(shares)
        assert 1 / 3 <= hhi <= 1.0


class TestDailySeries:
    def test_daily_hhi(self):
        day1 = datetime.date(2022, 10, 1)
        day2 = datetime.date(2022, 10, 2)
        series = daily_hhi_series(
            "hhi", {day2: {"a": 1.0}, day1: {"a": 0.5, "b": 0.5}}
        )
        assert series.dates == (day1, day2)
        assert series.values == (pytest.approx(0.5), 1.0)


class TestLabels:
    def test_thresholds(self):
        assert concentration_label(0.05) == "unconcentrated"
        assert concentration_label(0.17) == "moderately concentrated"
        assert concentration_label(0.30) == "highly concentrated"
