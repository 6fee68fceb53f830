"""Block composition analyses (paper Section 5.1, 5.3).

PBS vs non-PBS comparisons of block value (Fig. 9), proposer profit
percentiles (Fig. 10), block size in gas (Fig. 13), and the share of
privately received transactions (Fig. 14).

Per-element expressions are computed once over whole columns; the only
Python-level loop left is over the ~198 study days.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

import numpy as np

from ..datasets.collector import StudyDataset
from ..datasets.columnar import exact_segment_sums
from .timeseries import DailySeries, day_slices


@dataclass(frozen=True)
class PercentileSeries:
    """A daily series with interquartile band (Fig. 10 / Fig. 16 style)."""

    name: str
    dates: tuple[datetime.date, ...]
    p25: tuple[float, ...]
    p50: tuple[float, ...]
    p75: tuple[float, ...]

    def median_series(self) -> DailySeries:
        return DailySeries(self.name, self.dates, self.p50)


def _mask_split(dataset: StudyDataset):
    is_pbs = dataset.table.is_pbs
    return (("PBS", is_pbs), ("non-PBS", ~is_pbs))


def _masked_days(dataset: StudyDataset, mask: np.ndarray, values: np.ndarray):
    """Day slices of ``values`` restricted to ``mask`` rows."""
    return day_slices(dataset.table.date_ordinal[mask]), values[mask]


def daily_block_value(dataset: StudyDataset) -> tuple[DailySeries, DailySeries]:
    """Daily mean block value in ETH for PBS and non-PBS blocks (Fig. 9)."""
    eth = dataset.table.ether("block_value_wei")
    series = []
    for name, mask in _mask_split(dataset):
        (dates, starts, ends), selected = _masked_days(dataset, mask, eth)
        values = tuple(
            float(np.mean(selected[start:end]))
            for start, end in zip(starts, ends)
        )
        series.append(DailySeries(f"{name} block value [ETH]", dates, values))
    return series[0], series[1]


def daily_proposer_profit(
    dataset: StudyDataset,
) -> tuple[PercentileSeries, PercentileSeries]:
    """Daily proposer-profit percentiles, PBS vs non-PBS (Fig. 10)."""
    eth = dataset.table.ether("proposer_profit_wei")
    result = []
    for name, mask in _mask_split(dataset):
        (dates, starts, ends), selected = _masked_days(dataset, mask, eth)
        p25, p50, p75 = [], [], []
        for start, end in zip(starts, ends):
            day_profits = selected[start:end]
            p25.append(float(np.percentile(day_profits, 25)))
            p50.append(float(np.percentile(day_profits, 50)))
            p75.append(float(np.percentile(day_profits, 75)))
        result.append(
            PercentileSeries(
                f"{name} proposer profit [ETH]",
                dates,
                tuple(p25),
                tuple(p50),
                tuple(p75),
            )
        )
    return result[0], result[1]


def daily_block_size(
    dataset: StudyDataset,
) -> tuple[DailySeries, DailySeries, DailySeries, DailySeries]:
    """Daily mean and std of gas used, PBS vs non-PBS (Fig. 13).

    Returns (pbs mean, pbs std, non-pbs mean, non-pbs std).
    """
    gas = dataset.table.col("gas_used").astype(float)
    out: list[DailySeries] = []
    for name, mask in _mask_split(dataset):
        (dates, starts, ends), selected = _masked_days(dataset, mask, gas)
        means, stds = [], []
        for start, end in zip(starts, ends):
            sizes = selected[start:end]
            means.append(float(sizes.mean()))
            stds.append(float(sizes.std()))
        out.append(DailySeries(f"{name} gas mean", dates, tuple(means)))
        out.append(DailySeries(f"{name} gas std", dates, tuple(stds)))
    return out[0], out[1], out[2], out[3]


def daily_private_tx_share(
    dataset: StudyDataset,
) -> tuple[DailySeries, DailySeries]:
    """Daily share of block transactions not seen in the public mempool
    before inclusion, PBS vs non-PBS (Fig. 14)."""
    table = dataset.table
    series = []
    for name, mask in _mask_split(dataset):
        dates, starts, _ = day_slices(table.date_ordinal[mask])
        tx_sums = exact_segment_sums(table.col("tx_count")[mask], starts)
        private_sums = exact_segment_sums(
            table.col("private_tx_count")[mask], starts
        )
        values = tuple(
            private_sum / tx_sum if tx_sum else 0.0
            for tx_sum, private_sum in zip(tx_sums, private_sums)
        )
        series.append(
            DailySeries(f"{name} private tx share", dates, values)
        )
    return series[0], series[1]
