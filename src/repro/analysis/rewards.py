"""User payment decomposition (paper Section 3.1, Figure 3).

Splits each block's user payments into the burned base fee, the priority
fee, and direct transfers to the fee recipient, and reports their daily
shares — the paper finds ~72% burned, ~18% priority, the rest direct.

Daily wei totals are exact Python-int sums (:func:`exact_segment_sums`),
so the shares are bit-identical to the per-object implementation —
float64 day sums would drift on >9-ETH days.
"""

from __future__ import annotations

from ..datasets.collector import StudyDataset
from ..datasets.columnar import exact_segment_sums
from .timeseries import DailySeries, day_slices


def daily_user_payment_shares(
    dataset: StudyDataset,
) -> tuple[DailySeries, DailySeries, DailySeries]:
    """(base-fee share, priority-fee share, direct-transfer share) per day."""
    table = dataset.table
    dates, starts, _ = day_slices(table.date_ordinal)
    burned_sums = exact_segment_sums(table.col("burned_wei"), starts)
    priority_sums = exact_segment_sums(table.col("priority_fees_wei"), starts)
    direct_sums = exact_segment_sums(table.col("direct_transfers_wei"), starts)

    base_values, priority_values, direct_values = [], [], []
    for burned, priority, direct in zip(burned_sums, priority_sums, direct_sums):
        total = burned + priority + direct
        if total == 0:
            base_values.append(0.0)
            priority_values.append(0.0)
            direct_values.append(0.0)
        else:
            base_values.append(burned / total)
            priority_values.append(priority / total)
            direct_values.append(direct / total)
    return (
        DailySeries("base fee share", dates, tuple(base_values)),
        DailySeries("priority fee share", dates, tuple(priority_values)),
        DailySeries("direct transfer share", dates, tuple(direct_values)),
    )
