"""PBS adoption over time (paper Section 4, Figure 4).

A block counts as PBS when a crawled relay claims it in its delivered
payloads, or when it carries the builder->proposer payment convention —
the union rule the paper uses (99.6% relay-claimed, 92% with payment).
"""

from __future__ import annotations

import numpy as np

from ..datasets.collector import StudyDataset
from .timeseries import DailySeries, day_slices


def daily_pbs_share(dataset: StudyDataset) -> DailySeries:
    """Share of each day's blocks built through PBS."""
    table = dataset.table
    dates, starts, ends = day_slices(table.date_ordinal)
    is_pbs = table.is_pbs.astype(np.int64)
    counts = np.add.reduceat(is_pbs, starts) if len(starts) else []
    values = tuple(
        float(count / (end - start))
        for count, start, end in zip(counts, starts, ends)
    )
    return DailySeries("PBS share", dates, values)


def identification_rule_breakdown(dataset: StudyDataset) -> dict[str, float]:
    """How each identification rule contributes (the paper's 99.6% / 92%).

    Returns shares of PBS blocks that are relay-claimed, that carry the
    payment convention, and that carry neither-rule overlap diagnostics.
    """
    table = dataset.table
    pbs = table.is_pbs
    total = int(pbs.sum())
    if not total:
        return {
            "relay_claimed": 0.0,
            "payment_convention": 0.0,
            "payment_missing_same_recipient": 0.0,
        }
    relay_claimed = int((pbs & table.relay_claimed).sum())
    with_payment = int((pbs & table.has_pbs_payment).sum())
    missing = pbs & ~table.has_pbs_payment
    missing_total = int(missing.sum())
    same_recipient = int((missing & ~table.recipient_mismatch).sum())
    return {
        "relay_claimed": relay_claimed / total,
        "payment_convention": with_payment / total,
        "payment_missing_same_recipient": (
            same_recipient / missing_total if missing_total else 1.0
        ),
    }
