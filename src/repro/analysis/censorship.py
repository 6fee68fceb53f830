"""Censorship analyses (paper Section 6).

The share of PBS blocks produced by OFAC-compliant relays (Fig. 17), the
daily share of PBS and non-PBS blocks containing non-compliant
transactions (Fig. 18), and the per-relay sanctioned-block counts of
Table 4's right side.

Relay membership tests run over the flat ragged ``claim_relays`` column
(:func:`isin_strings` / :func:`per_segment_counts`), never per object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets.collector import StudyDataset
from ..datasets.columnar import as_str, isin_strings, per_segment_counts
from .timeseries import DailySeries, day_slices


def daily_compliant_relay_share(dataset: StudyDataset) -> DailySeries:
    """Share of each day's PBS blocks attributed to censoring relays.

    Multi-relay blocks contribute fractionally, matching the equal-split
    attribution of the relay market-share analysis.
    """
    table = dataset.table
    offsets = table.col("claim_offsets")
    counts = offsets[1:] - offsets[:-1]
    member = isin_strings(table.col("claim_relays"), dataset.compliant_relays)
    compliant_claims = per_segment_counts(member, offsets)

    index = np.flatnonzero(counts > 0)
    fractions = compliant_claims[index] / counts[index]
    dates, starts, ends = day_slices(table.date_ordinal[index])
    # Sequential (not pairwise) summation of the per-block fractions, so
    # the day means match the per-object accumulation bit for bit.
    values = tuple(
        sum(fractions[start:end].tolist()) / (end - start)
        for start, end in zip(starts, ends)
    )
    return DailySeries("OFAC-compliant relay share", dates, values)


def daily_sanctioned_share(
    dataset: StudyDataset,
) -> tuple[DailySeries, DailySeries]:
    """Daily share of blocks containing non-OFAC-compliant transactions,
    PBS vs non-PBS (Fig. 18)."""
    table = dataset.table
    series = []
    for name, mask in (("PBS", table.is_pbs), ("non-PBS", ~table.is_pbs)):
        dates, starts, ends = day_slices(table.date_ordinal[mask])
        sanctioned = table.is_sanctioned[mask].astype(np.int64)
        counts = np.add.reduceat(sanctioned, starts) if len(starts) else []
        values = tuple(
            float(count / (end - start))
            for count, start, end in zip(counts, starts, ends)
        )
        series.append(DailySeries(f"{name} sanctioned share", dates, values))
    return series[0], series[1]


def overall_sanctioned_shares(dataset: StudyDataset) -> dict[str, float]:
    """Window-level sanctioned-block shares (the paper's 2x headline)."""
    table = dataset.table
    pbs = table.is_pbs
    sanctioned = table.is_sanctioned
    pbs_total = int(pbs.sum())
    non_pbs_total = len(table) - pbs_total
    return {
        "PBS": int((sanctioned & pbs).sum()) / pbs_total if pbs_total else 0.0,
        "non-PBS": (
            int((sanctioned & ~pbs).sum()) / non_pbs_total
            if non_pbs_total
            else 0.0
        ),
    }


@dataclass(frozen=True)
class SanctionedRelayRow:
    """One relay's sanctioned-block row (Table 4, right side)."""

    relay: str
    is_compliant: bool
    sanctioned_blocks: int
    total_blocks: int

    @property
    def share(self) -> float:
        return self.sanctioned_blocks / self.total_blocks if self.total_blocks else 0.0


def sanctioned_blocks_by_relay(dataset: StudyDataset) -> list[SanctionedRelayRow]:
    """Sanctioned-block counts per relay over its delivered blocks."""
    table = dataset.table
    claim_relays = table.col("claim_relays")
    if claim_relays.size == 0:
        return []
    offsets = table.col("claim_offsets")
    counts = offsets[1:] - offsets[:-1]
    # One entry per claim, carrying the claiming block's sanctioned flag.
    per_claim_sanctioned = np.repeat(table.is_sanctioned, counts)
    uniques, _, inverse = table.dictionary("claim_relays")
    totals = np.bincount(inverse, minlength=len(uniques))
    sanctioned = np.bincount(
        inverse[per_claim_sanctioned], minlength=len(uniques)
    )
    rows = []
    for i, relay in enumerate(uniques):
        name = as_str(relay)
        rows.append(
            SanctionedRelayRow(
                relay=name,
                is_compliant=name in dataset.compliant_relays,
                sanctioned_blocks=int(sanctioned[i]),
                total_blocks=int(totals[i]),
            )
        )
    return rows


def sanctioned_inclusion_delay_after_updates(
    dataset: StudyDataset,
) -> dict[str, float]:
    """Share of each compliant relay's sanctioned blocks that fall within
    seven days after an OFAC list update — the paper's "gaps follow
    updates" observation."""
    table = dataset.table
    ordinals = table.date_ordinal
    near_update = np.zeros(len(table), dtype=bool)
    for update in dataset.sanctions.update_dates():
        delta = ordinals - update.toordinal()
        near_update |= (delta >= 0) & (delta <= 7)

    offsets = table.col("claim_offsets")
    claim_relays = table.col("claim_relays")
    result: dict[str, float] = {}
    for row in sanctioned_blocks_by_relay(dataset):
        if not row.is_compliant:
            continue
        member = isin_strings(claim_relays, (row.relay,))
        claims_this_relay = per_segment_counts(member, offsets) > 0
        selected = claims_this_relay & table.is_sanctioned
        total = int(selected.sum())
        near = int((selected & near_update).sum())
        result[row.relay] = near / total if total else 0.0
    return result
