"""The vectorized report pipeline against the pinned per-object reference.

These are the hot aggregation loops exactly as they existed before the
columnar backend, kept verbatim as the reference the vectorized analysis
modules must reproduce.  They are test fixtures, not an API — the live
implementations are in :mod:`repro.analysis`.

``run_legacy_report_pipeline`` computes the same figures/tables the
``python -m repro report`` command renders; ``run_report_pipeline``
computes them through the current vectorized modules.  The test below
demands equal output for all ten on the session's 70-day dataset, which
spans the paper's incidents, and on a copy of it with every third block's
relay claims dropped.
"""

from __future__ import annotations

import dataclasses
import datetime
from typing import Callable, Iterable

import numpy as np
import pytest

from repro.analysis import concentration
from repro.analysis.relays import pbs_totals_row
from repro.analysis.timeseries import DailySeries
from repro.datasets.records import BlockObservation
from repro.types import to_ether


def group_by_date(
    blocks: Iterable[BlockObservation],
) -> dict[datetime.date, list[BlockObservation]]:
    """Bucket block observations by calendar date, ascending."""
    buckets: dict[datetime.date, list[BlockObservation]] = {}
    for obs in blocks:
        buckets.setdefault(obs.date, []).append(obs)
    return dict(sorted(buckets.items()))


def daily_series(
    name: str,
    blocks: Iterable[BlockObservation],
    reducer: Callable[[list[BlockObservation]], float],
) -> DailySeries:
    """Apply a per-day reducer over grouped observations."""
    buckets = group_by_date(blocks)
    dates = tuple(buckets)
    values = tuple(float(reducer(day_blocks)) for day_blocks in buckets.values())
    return DailySeries(name=name, dates=dates, values=values)


# -- legacy (per-object) implementations ------------------------------------


def legacy_daily_pbs_share(dataset) -> DailySeries:
    return daily_series(
        "PBS share",
        dataset.blocks,
        lambda day_blocks: sum(obs.is_pbs for obs in day_blocks) / len(day_blocks),
    )


def legacy_daily_user_payment_shares(dataset):
    def _shares(day_blocks):
        burned = sum(obs.burned_wei for obs in day_blocks)
        priority = sum(obs.priority_fees_wei for obs in day_blocks)
        direct = sum(obs.direct_transfers_wei for obs in day_blocks)
        total = burned + priority + direct
        if total == 0:
            return 0.0, 0.0, 0.0
        return burned / total, priority / total, direct / total

    buckets = group_by_date(dataset.blocks)
    dates = tuple(buckets)
    triples = [_shares(day_blocks) for day_blocks in buckets.values()]
    return (
        DailySeries("base fee share", dates, tuple(t[0] for t in triples)),
        DailySeries("priority fee share", dates, tuple(t[1] for t in triples)),
        DailySeries("direct transfer share", dates, tuple(t[2] for t in triples)),
    )


def legacy_daily_relay_shares(dataset, include_non_pbs=False):
    shares = {}
    for date, day_blocks in group_by_date(dataset.blocks).items():
        weights = {}
        denominator = 0
        for obs in day_blocks:
            relays = sorted(obs.claimed_by_relay)
            if not relays:
                if include_non_pbs:
                    weights["(none)"] = weights.get("(none)", 0.0) + 1.0
                    denominator += 1
                continue
            denominator += 1
            for relay in relays:
                weights[relay] = weights.get(relay, 0.0) + 1.0 / len(relays)
        if denominator:
            shares[date] = {
                name: weight / denominator for name, weight in weights.items()
            }
    return shares


class _LegacyCluster:
    __slots__ = ("name", "pubkeys", "addresses", "blocks")

    def __init__(self, name):
        self.name = name
        self.pubkeys = set()
        self.addresses = set()
        self.blocks = []

    @property
    def block_count(self):
        return len(self.blocks)


def legacy_cluster_builders(dataset):
    def _key(obs):
        if not obs.is_pbs:
            return None
        if obs.fee_recipient != obs.proposer_fee_recipient:
            return f"addr:{obs.fee_recipient}"
        if obs.builder_pubkey is not None:
            return f"pubkey:{obs.builder_pubkey}"
        return None

    by_key = {}
    for obs in dataset.blocks:
        key = _key(obs)
        if key is None:
            continue
        cluster = by_key.get(key)
        if cluster is None:
            cluster = _LegacyCluster(key)
            by_key[key] = cluster
        cluster.blocks.append(obs)
        if obs.builder_pubkey is not None:
            cluster.pubkeys.add(obs.builder_pubkey)
        if obs.fee_recipient != obs.proposer_fee_recipient:
            cluster.addresses.add(obs.fee_recipient)

    merged = []
    by_pubkey = {}
    for cluster in by_key.values():
        target = None
        for pubkey in cluster.pubkeys:
            if pubkey in by_pubkey:
                target = by_pubkey[pubkey]
                break
        if target is None:
            merged.append(cluster)
            target = cluster
        else:
            target.blocks.extend(cluster.blocks)
            target.pubkeys |= cluster.pubkeys
            target.addresses |= cluster.addresses
        for pubkey in target.pubkeys:
            by_pubkey[pubkey] = target

    for cluster in merged:
        tags = {obs.extra_data for obs in cluster.blocks if obs.extra_data}
        if tags:
            cluster.name = sorted(tags)[0]
        elif cluster.addresses:
            cluster.name = f"builder@{sorted(cluster.addresses)[0][:10]}"
        else:
            cluster.name = f"builder#{sorted(cluster.pubkeys)[0][:12]}"
    merged.sort(key=lambda cluster: cluster.block_count, reverse=True)
    return merged


def legacy_daily_builder_shares(dataset):
    clusters = legacy_cluster_builders(dataset)
    name_by_block = {}
    for cluster in clusters:
        for obs in cluster.blocks:
            name_by_block[obs.number] = cluster.name
    shares = {}
    pbs_blocks = [obs for obs in dataset.blocks if obs.is_pbs]
    for date, day_blocks in group_by_date(pbs_blocks).items():
        counts = {}
        total = 0
        for obs in day_blocks:
            name = name_by_block.get(obs.number)
            if name is None:
                continue
            counts[name] = counts.get(name, 0) + 1
            total += 1
        if total:
            shares[date] = {name: c / total for name, c in counts.items()}
    return shares


def legacy_daily_block_value(dataset):
    series = []
    pbs = [obs for obs in dataset.blocks if obs.is_pbs]
    non_pbs = [obs for obs in dataset.blocks if not obs.is_pbs]
    for name, blocks in zip(("PBS", "non-PBS"), (pbs, non_pbs)):
        buckets = group_by_date(blocks)
        dates = tuple(buckets)
        values = tuple(
            float(np.mean([to_ether(obs.block_value_wei) for obs in day_blocks]))
            for day_blocks in buckets.values()
        )
        series.append(DailySeries(f"{name} block value [ETH]", dates, values))
    return series[0], series[1]


def legacy_daily_private_tx_share(dataset):
    series = []
    pbs = [obs for obs in dataset.blocks if obs.is_pbs]
    non_pbs = [obs for obs in dataset.blocks if not obs.is_pbs]
    for name, blocks in zip(("PBS", "non-PBS"), (pbs, non_pbs)):
        buckets = group_by_date(blocks)
        dates = tuple(buckets)
        values = []
        for day_blocks in buckets.values():
            txs = sum(obs.tx_count for obs in day_blocks)
            private = sum(obs.private_tx_count for obs in day_blocks)
            values.append(private / txs if txs else 0.0)
        series.append(DailySeries(f"{name} private tx share", dates, tuple(values)))
    return series[0], series[1]


def legacy_daily_mev_per_block(dataset, kind=None):
    series = []
    pbs = [obs for obs in dataset.blocks if obs.is_pbs]
    non_pbs = [obs for obs in dataset.blocks if not obs.is_pbs]
    for name, blocks in zip(("PBS", "non-PBS"), (pbs, non_pbs)):
        buckets = group_by_date(blocks)
        dates = tuple(buckets)
        values = []
        for day_blocks in buckets.values():
            count = 0
            for obs in day_blocks:
                labels = dataset.mev.labels_for_block(obs.number)
                if kind is not None:
                    labels = [label for label in labels if label.kind == kind]
                count += len(labels)
            values.append(count / len(day_blocks))
        label = kind or "MEV"
        series.append(DailySeries(f"{name} {label}/block", dates, tuple(values)))
    return series[0], series[1]


def legacy_daily_compliant_relay_share(dataset):
    compliant = dataset.compliant_relays
    buckets = group_by_date([obs for obs in dataset.blocks if obs.relay_claimed])
    dates = tuple(buckets)
    values = []
    for day_blocks in buckets.values():
        weight = 0.0
        for obs in day_blocks:
            relays = obs.claimed_by_relay
            weight += sum(1 for relay in relays if relay in compliant) / len(relays)
        values.append(weight / len(day_blocks))
    return DailySeries("OFAC-compliant relay share", dates, tuple(values))


def legacy_daily_sanctioned_share(dataset):
    series = []
    pbs = [obs for obs in dataset.blocks if obs.is_pbs]
    non_pbs = [obs for obs in dataset.blocks if not obs.is_pbs]
    for name, blocks in zip(("PBS", "non-PBS"), (pbs, non_pbs)):
        buckets = group_by_date(blocks)
        dates = tuple(buckets)
        values = tuple(
            sum(obs.is_sanctioned for obs in day_blocks) / len(day_blocks)
            for day_blocks in buckets.values()
        )
        series.append(DailySeries(f"{name} sanctioned share", dates, values))
    return series[0], series[1]


def legacy_relay_trust_table(dataset):
    from repro.analysis.relays import RelayTrustRow

    per_relay = {}
    for obs in dataset.blocks:
        if not obs.claimed_by_relay:
            continue
        delivered = obs.delivered_value_wei
        for relay, claimed in obs.claimed_by_relay.items():
            per_relay.setdefault(relay, []).append((claimed, delivered))

    rows = []
    for relay in sorted(per_relay):
        pairs = per_relay[relay]
        promised = sum(claimed for claimed, _ in pairs)
        delivered = sum(actual for _, actual in pairs)
        over_promised = sum(1 for claimed, actual in pairs if claimed > actual)
        rows.append(
            RelayTrustRow(
                relay=relay,
                delivered_value_eth=to_ether(delivered),
                promised_value_eth=to_ether(promised),
                share_of_value_delivered=(
                    delivered / promised if promised else 1.0
                ),
                share_over_promised_blocks=over_promised / len(pairs),
                blocks=len(pairs),
            )
        )
    return rows


# -- pipeline drivers --------------------------------------------------------


def run_legacy_report_pipeline(dataset) -> dict:
    """Every report-command analysis, via the pinned per-object loops."""
    rows = legacy_relay_trust_table(dataset)
    return {
        "fig03": legacy_daily_user_payment_shares(dataset),
        "fig04": legacy_daily_pbs_share(dataset),
        "fig06_relay": concentration.daily_hhi_series(
            "relay HHI", legacy_daily_relay_shares(dataset)
        ),
        "fig06_builder": concentration.daily_hhi_series(
            "builder HHI", legacy_daily_builder_shares(dataset)
        ),
        "fig09": legacy_daily_block_value(dataset),
        "fig14": legacy_daily_private_tx_share(dataset),
        "fig15": legacy_daily_mev_per_block(dataset),
        "fig17": legacy_daily_compliant_relay_share(dataset),
        "fig18": legacy_daily_sanctioned_share(dataset),
        "table4": (rows, pbs_totals_row(rows)),
    }


def run_report_pipeline(dataset) -> dict:
    """The same figures through the current vectorized analysis modules."""
    from repro.analysis import (
        daily_block_value,
        daily_builder_shares,
        daily_compliant_relay_share,
        daily_mev_per_block,
        daily_pbs_share,
        daily_private_tx_share,
        daily_relay_shares,
        daily_sanctioned_share,
        daily_user_payment_shares,
        relay_trust_table,
    )

    rows = relay_trust_table(dataset)
    return {
        "fig03": daily_user_payment_shares(dataset),
        "fig04": daily_pbs_share(dataset),
        "fig06_relay": concentration.daily_hhi_series(
            "relay HHI", daily_relay_shares(dataset)
        ),
        "fig06_builder": concentration.daily_hhi_series(
            "builder HHI", daily_builder_shares(dataset)
        ),
        "fig09": daily_block_value(dataset),
        "fig14": daily_private_tx_share(dataset),
        "fig15": daily_mev_per_block(dataset),
        "fig17": daily_compliant_relay_share(dataset),
        "fig18": daily_sanctioned_share(dataset),
        "table4": (rows, pbs_totals_row(rows)),
    }


def _unclaimed_every_third(dataset):
    """The dataset with every third block's relay claims dropped.

    Every PBS block of the collected world is relay-claimed, so this is
    what exercises the union rule's other half: blocks that are PBS by
    the payment convention alone, as 0.4 % of the paper's were.
    """
    blocks = [
        dataclasses.replace(obs, claimed_by_relay={}) if i % 3 == 0 else obs
        for i, obs in enumerate(dataset.blocks)
    ]
    return dataclasses.replace(dataset, blocks=blocks)


@pytest.mark.parametrize("variant", ["collected", "unclaimed-every-third"])
def test_vectorized_pipeline_matches_per_object_reference(medium_dataset, variant):
    dataset = medium_dataset
    if variant == "unclaimed-every-third":
        dataset = _unclaimed_every_third(medium_dataset)
        assert (dataset.table.is_pbs & ~dataset.table.relay_claimed).any()
    vectorized = run_report_pipeline(dataset)
    reference = run_legacy_report_pipeline(dataset)
    assert len(reference) == 10 and vectorized.keys() == reference.keys()
    mismatched = [key for key in reference if vectorized[key] != reference[key]]
    assert not mismatched, (
        f"vectorized pipeline diverged from the per-object reference: "
        f"{mismatched}"
    )
