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

    def last(self) -> float:
        if not self.values:
            raise AnalysisError(f"series {self.name} is empty")
        return self.values[-1]

    def window_mean(
        self, start: datetime.date, end: datetime.date
    ) -> float:
        """Mean over dates in [start, end]; raises on empty windows."""
        selected = [
            value
            for date, value in zip(self.dates, self.values)
            if start <= date <= end
        ]
        if not selected:
            raise AnalysisError(
                f"series {self.name}: no data in [{start}, {end}]"
            )
        return float(np.mean(selected))


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


def by_date_order(
    ordinals: np.ndarray, columns: list[np.ndarray]
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Stable-sort ``columns`` by date ordinal when not already sorted.

    Collected tables are block-number ordered, which is chronological, so
    this is a no-op on every normal dataset — the sort only triggers for
    hand-built observation lists in tests.
    """
    if ordinals.size and np.any(ordinals[1:] < ordinals[:-1]):
        order = np.argsort(ordinals, kind="stable")
        return ordinals[order], [column[order] for column in columns]
    return ordinals, columns
