"""Daily-aggregation helpers shared by every analysis."""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import AnalysisError


@dataclass(frozen=True)
class DailySeries:
    """One named daily time series."""

    name: str
    dates: tuple[datetime.date, ...]
    values: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.dates) != len(self.values):
            raise AnalysisError(
                f"series {self.name}: {len(self.dates)} dates vs "
                f"{len(self.values)} values"
            )

    def __len__(self) -> int:
        return len(self.dates)

    def mean(self) -> float:
        if not self.values:
            raise AnalysisError(f"series {self.name} is empty")
        return float(np.mean(self.values))


def percentile(values: Sequence[float], q: float) -> float:
    if not values:
        raise AnalysisError("cannot take a percentile of no data")
    return float(np.percentile(np.asarray(values, dtype=float), q))


# -- columnar daily aggregation ---------------------------------------------


def day_slices(
    ordinals: np.ndarray,
) -> tuple[tuple[datetime.date, ...], np.ndarray, np.ndarray]:
    """(dates, starts, ends) of same-date runs in a sorted ordinal array.

    Analyses slice value columns with ``[start:end]`` per day instead of
    materializing per-day observation lists.
    """
    uniques, starts = np.unique(ordinals, return_index=True)
    ends = np.append(starts[1:], ordinals.size)
    dates = tuple(datetime.date.fromordinal(int(o)) for o in uniques)
    return dates, starts, ends

