"""MEV analyses (paper Section 5.4, Appendix D).

Counts of MEV transactions per block and the share of block value that MEV
contributes, split PBS vs non-PBS, plus the bloXroute (Ethical) filter-gap
measurement.

MEV labels live in a per-block dict (:class:`~repro.mev.labels.MevDataset`),
so label lookups stay per block; everything around them — block selection,
date grouping, value attribution over the ragged contribution columns —
runs on arrays.
"""

from __future__ import annotations

import numpy as np

from ..datasets.collector import StudyDataset
from ..datasets.columnar import exact_sum, isin_strings, per_segment_counts
from ..mev.detection import MEV_SANDWICH
from .timeseries import DailySeries, day_slices


def daily_mev_per_block(
    dataset: StudyDataset, kind: str | None = None
) -> tuple[DailySeries, DailySeries]:
    """Daily mean number of MEV transactions per block, PBS vs non-PBS.

    ``kind`` restricts to one MEV type (Figs. 20-22); None counts all
    (Fig. 15).
    """
    table = dataset.table
    numbers = table.col("number")
    labels_for_block = dataset.mev.labels_for_block
    if kind is None:
        label_counts = np.asarray(
            [len(labels_for_block(int(n))) for n in numbers], dtype=np.int64
        )
    else:
        label_counts = np.asarray(
            [
                sum(1 for label in labels_for_block(int(n)) if label.kind == kind)
                for n in numbers
            ],
            dtype=np.int64,
        )

    series = []
    label = kind or "MEV"
    for name, mask in (("PBS", table.is_pbs), ("non-PBS", ~table.is_pbs)):
        dates, starts, ends = day_slices(table.date_ordinal[mask])
        counts = label_counts[mask]
        sums = np.add.reduceat(counts, starts) if len(starts) else []
        values = tuple(
            float(int(total) / (end - start))
            for total, start, end in zip(sums, starts, ends)
        )
        series.append(DailySeries(f"{name} {label}/block", dates, values))
    return series[0], series[1]


def daily_mev_value_share(
    dataset: StudyDataset,
) -> tuple[DailySeries, DailySeries]:
    """Daily mean share of block value attributable to MEV transactions,
    PBS vs non-PBS (Fig. 16).

    A block's MEV value is the priority fees plus direct tips paid by its
    MEV-labelled transactions.
    """
    table = dataset.table
    numbers = table.col("number")
    contrib_offsets = table.col("contrib_offsets")
    contrib_hashes = table.col("contrib_hashes")
    contrib_values = table.col("contrib_values")
    block_values = table.block_value_wei
    positive = np.asarray(block_values > 0, dtype=bool)
    labels_for_block = dataset.mev.labels_for_block

    # Per-block MEV value share for every positive-value block, computed
    # once; the ragged slices keep the int/int division exact.
    share_of_row = np.zeros(len(table), dtype=float)
    for row in np.flatnonzero(positive):
        mev_hashes = {
            label.tx_hash for label in labels_for_block(int(numbers[row]))
        }
        if not mev_hashes:
            continue
        lo, hi = int(contrib_offsets[row]), int(contrib_offsets[row + 1])
        member = isin_strings(contrib_hashes[lo:hi], mev_hashes)
        mev_value = exact_sum(contrib_values[lo:hi][member])
        share_of_row[row] = mev_value / int(block_values[row])

    series = []
    for name, mask in (("PBS", table.is_pbs), ("non-PBS", ~table.is_pbs)):
        dates, starts, ends = day_slices(table.date_ordinal[mask])
        shares, pos = share_of_row[mask], positive[mask]
        values = []
        for start, end in zip(starts, ends):
            day_pos = pos[start:end]
            if day_pos.any():
                values.append(float(np.mean(shares[start:end][day_pos])))
            else:
                values.append(0.0)
        series.append(
            DailySeries(f"{name} MEV value share", dates, tuple(values))
        )
    return series[0], series[1]


def bloxroute_ethical_sandwiches(dataset: StudyDataset) -> int:
    """Sandwich transactions delivered through bloXroute (Ethical).

    The relay announces a front-running filter; the paper counts 2,002
    sandwich transactions that got through anyway.
    """
    table = dataset.table
    member = isin_strings(table.col("claim_relays"), ("bloXroute (E)",))
    claimed_rows = np.flatnonzero(
        per_segment_counts(member, table.col("claim_offsets")) > 0
    )
    numbers = table.col("number")
    count = 0
    for row in claimed_rows:
        count += sum(
            1
            for label in dataset.mev.labels_for_block(int(numbers[row]))
            if label.kind == MEV_SANDWICH
        )
    return count


def mev_totals_by_kind(dataset: StudyDataset) -> dict[str, int]:
    """Total labelled MEV transactions per kind over the study window."""
    return dataset.mev.count_by_kind()
