"""Relay landscape analyses (paper Section 4.1, 5.2).

* daily relay market shares with equal splitting of multi-relay blocks
  (Figure 5),
* distinct builders submitting per relay per day (Figure 7),
* the relay trust table: delivered vs promised value and the share of
  over-promised blocks (Table 4, left side).

Claims are aggregated over the flat ragged ``claim_relays`` /
``claim_values`` columns; wei totals use exact Python-int reductions.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

import numpy as np

from ..datasets.collector import StudyDataset
from ..datasets.columnar import exact_sum
from ..types import to_ether


def _relay_name(value) -> str:
    return value.decode("ascii") if isinstance(value, bytes) else str(value)


def daily_relay_shares(dataset: StudyDataset) -> dict[datetime.date, dict[str, float]]:
    """Per-day share of PBS blocks attributed to each relay.

    A block delivered by several relays is attributed to each equally, as
    in the paper; a day without a relay-claimed block has no entry.
    """
    table = dataset.table
    offsets = table.col("claim_offsets")
    counts = offsets[1:] - offsets[:-1]
    # Equal split: each claim of an n-relay block weighs 1/n.  Relay
    # names are interned into one global id space and all per-day/relay
    # weight sums come out of one bincount over (day, relay) keys; claims
    # are bucketed in flat (block) order, so every per-key float
    # accumulation matches the per-object dict accumulation bit for bit.
    claim_weights = 1.0 / np.repeat(counts, counts)
    uniques, _, inverse = table.dictionary("claim_relays")
    names = [_relay_name(relay) for relay in uniques]
    num_relays = max(len(uniques), 1)

    ordinals = table.date_ordinal
    day_ordinals, day_inverse = np.unique(ordinals, return_inverse=True)
    num_days = len(day_ordinals)
    day_of_claim = np.repeat(day_inverse, counts)
    keys = day_of_claim * num_relays + inverse
    sums = np.bincount(
        keys, weights=claim_weights, minlength=num_days * num_relays
    )
    claimed_per_day = np.bincount(day_inverse[counts > 0], minlength=num_days)

    # First claiming block per (day, relay) key orders each day's share
    # dict like the per-object insertion order (ties within one block
    # resolve by name — ascending interned id — as the per-object loop
    # visits a block's relays sorted), so order-sensitive float
    # reductions over the dicts, like the HHI, also match exactly.
    block_of_claim = np.repeat(np.arange(len(counts)), counts)
    key_uniques, key_first = np.unique(keys, return_index=True)
    key_block = block_of_claim[key_first]
    day_bounds = np.searchsorted(
        key_uniques // num_relays, np.arange(num_days + 1)
    )

    shares: dict[datetime.date, dict[str, float]] = {}
    for day in range(num_days):
        denominator = int(claimed_per_day[day])
        if not denominator:
            continue
        lo, hi = day_bounds[day], day_bounds[day + 1]
        order = np.argsort(key_block[lo:hi], kind="stable")
        shares[datetime.date.fromordinal(int(day_ordinals[day]))] = {
            names[key % num_relays]: float(sums[key] / denominator)
            for key in key_uniques[lo:hi][order]
        }
    return shares


def multi_relay_share(dataset: StudyDataset) -> float:
    """Share of PBS blocks claimed by more than one relay (~5% in the paper)."""
    counts = dataset.table.ragged_counts("claim_offsets")
    claimed = int((counts > 0).sum())
    if not claimed:
        return 0.0
    return int((counts > 1).sum()) / claimed


def builders_per_relay_daily(
    dataset: StudyDataset,
) -> dict[str, dict[datetime.date, int]]:
    """Distinct builders whose submissions each relay accepted, per day.

    Uses the relay data API (builder_blocks_received), joining slots to
    dates through the block observations, as the paper's crawl does.
    """
    table = dataset.table
    slot_to_date = {
        int(slot): datetime.date.fromordinal(int(ordinal))
        for slot, ordinal in zip(table.col("slot"), table.date_ordinal)
    }
    result: dict[str, dict[datetime.date, int]] = {}
    for name, relay in dataset.relays.items():
        per_day: dict[datetime.date, set[str]] = {}
        for record in relay.data.get_builder_blocks_received():
            if not record.accepted:
                continue
            date = slot_to_date.get(record.slot)
            if date is None:
                continue
            per_day.setdefault(date, set()).add(record.builder_pubkey)
        result[name] = {
            date: len(pubkeys) for date, pubkeys in sorted(per_day.items())
        }
    return result


@dataclass(frozen=True)
class RelayTrustRow:
    """One relay's row in Table 4 (left side)."""

    relay: str
    delivered_value_eth: float
    promised_value_eth: float
    share_of_value_delivered: float
    share_over_promised_blocks: float
    blocks: int


def relay_trust_table(dataset: StudyDataset) -> list[RelayTrustRow]:
    """Delivered vs promised value per relay over its delivered payloads.

    For each delivered payload, the promised value is the relay's claim and
    the delivered value is what the chain shows the proposer received.
    """
    table = dataset.table
    claim_relays = table.col("claim_relays")
    if claim_relays.size == 0:
        return []
    counts = table.ragged_counts("claim_offsets")
    claim_values = table.col("claim_values")
    # Per-claim delivered value: the claiming block's proposer profit.
    delivered_per_claim = np.repeat(table.proposer_profit_wei, counts)

    uniques, _, inverse = table.dictionary("claim_relays")
    rows: list[RelayTrustRow] = []
    for i, relay in enumerate(uniques):
        selected = inverse == i
        claimed = claim_values[selected]
        delivered = delivered_per_claim[selected]
        promised_total = exact_sum(np.asarray(claimed))
        delivered_total = exact_sum(np.asarray(delivered))
        over_promised = int((claimed > delivered).sum())
        blocks = int(selected.sum())
        rows.append(
            RelayTrustRow(
                relay=_relay_name(relay),
                delivered_value_eth=to_ether(delivered_total),
                promised_value_eth=to_ether(promised_total),
                share_of_value_delivered=(
                    delivered_total / promised_total if promised_total else 1.0
                ),
                share_over_promised_blocks=over_promised / blocks,
                blocks=blocks,
            )
        )
    return rows


def pbs_totals_row(rows: list[RelayTrustRow]) -> RelayTrustRow:
    """The aggregate "PBS" row at the bottom of Table 4.

    Note: summing per-relay rows double-counts multi-relay blocks exactly
    as the paper's table does (each relay independently promises).
    """
    delivered = sum(row.delivered_value_eth for row in rows)
    promised = sum(row.promised_value_eth for row in rows)
    blocks = sum(row.blocks for row in rows)
    over = sum(row.share_over_promised_blocks * row.blocks for row in rows)
    return RelayTrustRow(
        relay="PBS",
        delivered_value_eth=delivered,
        promised_value_eth=promised,
        share_of_value_delivered=delivered / promised if promised else 1.0,
        share_over_promised_blocks=over / blocks if blocks else 0.0,
        blocks=blocks,
    )
