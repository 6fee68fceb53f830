"""Market-concentration measures (paper Section 4, Figure 6)."""

from __future__ import annotations

import datetime
from typing import Mapping

import numpy as np

from ..errors import AnalysisError
from .timeseries import DailySeries

# HHI interpretation thresholds the paper quotes (DOJ convention, 0-1 scale).
HHI_MODERATE_CONCENTRATION = 0.15
HHI_HIGH_CONCENTRATION = 0.25


def herfindahl_hirschman_index(shares: Mapping[str, float]) -> float:
    """HHI of a market given per-player shares (normalized if needed).

    Returns a value in (0, 1]; 1/n for a perfectly even n-player market,
    1.0 for a monopoly.
    """
    values = np.asarray([s for s in shares.values() if s > 0], dtype=float)
    if values.size == 0:
        raise AnalysisError("HHI of an empty market")
    total = values.sum()
    if total <= 0:
        raise AnalysisError("HHI of a zero-volume market")
    normalized = values / total
    return float(np.sum(normalized**2))


def daily_hhi_series(
    name: str,
    daily_shares: Mapping[datetime.date, Mapping[str, float]],
) -> DailySeries:
    """HHI per day from per-day market-share maps."""
    dates = tuple(sorted(daily_shares))
    values = tuple(
        herfindahl_hirschman_index(daily_shares[date]) for date in dates
    )
    return DailySeries(name=name, dates=dates, values=values)


def concentration_label(hhi: float) -> str:
    """The qualitative label the paper uses for HHI levels."""
    if hhi < HHI_MODERATE_CONCENTRATION:
        return "unconcentrated"
    if hhi < HHI_HIGH_CONCENTRATION:
        return "moderately concentrated"
    return "highly concentrated"
