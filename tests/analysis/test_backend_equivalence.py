"""Golden test: the columnar collector against a per-object reference.

One seeded world is collected twice — by :func:`collect_study_dataset`,
which appends straight into ``BlockTable`` column builders, and by
:func:`reference_observations` below, the per-object collection kept as
the reference — and the observations, plus every public analysis
function, must be *identical* on both.  Identical, not approximately
equal: both datasets feed the same vectorized code through
``dataset.table``, and the columnar encoding is lossless, so any drift
is a real defect in the collector, the encoding or the accessors.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence

import pytest

from repro.analysis import (
    adoption,
    blocks,
    builders,
    censorship,
    mev,
    network_structure,
    relays,
    rewards,
)
from repro.datasets.collector import (
    _detect_builder_payment,
    collect_study_dataset,
)
from repro.datasets.columnar import BlockTable
from repro.datasets.records import BlockObservation
from repro.sanctions.screening import SanctionScreener
from repro.simulation.config import small_test_config
from repro.simulation.world import build_world


def reference_observations(world) -> list[BlockObservation]:
    """The per-object collection: one observation per proposed block."""
    deliveries_by_hash = {}
    for relay in world.relays.values():
        for payload in relay.data.get_payloads_delivered():
            deliveries_by_hash.setdefault(payload.block_hash, []).append(payload)
    screener = SanctionScreener(world.sanctions, world.defi.tokens)
    observations = []
    for record in world.beacon.proposed():
        block = world.chain.block_by_hash(record.execution_block_hash)
        result = world.chain.execution_result(block.block_hash)
        proposer = world.validators.by_index(record.proposer_index)
        block_time = float(block.header.timestamp)
        private_hashes = frozenset(
            tx.tx_hash
            for tx in block.transactions
            if not world.observations.is_public(tx.tx_hash, before=block_time)
        )
        contribution = {}
        for outcome in result.outcomes:
            value = outcome.priority_fee_wei + outcome.direct_tip_wei
            if value:
                contribution[outcome.receipt.tx_hash] = value
        payloads = deliveries_by_hash.get(block.block_hash, [])
        observations.append(
            BlockObservation(
                number=block.number,
                block_hash=block.block_hash,
                slot=record.slot,
                date=record.date,
                proposer_index=proposer.index,
                proposer_entity=proposer.entity,
                proposer_fee_recipient=proposer.fee_recipient,
                fee_recipient=block.fee_recipient,
                extra_data=block.header.extra_data,
                gas_used=block.header.gas_used,
                gas_limit=block.header.gas_limit,
                base_fee_per_gas=block.header.base_fee_per_gas,
                burned_wei=result.burned_wei,
                priority_fees_wei=result.priority_fees_wei,
                direct_transfers_wei=result.direct_transfers_wei,
                tx_count=len(block.transactions),
                private_tx_count=len(private_hashes),
                builder_payment_wei=_detect_builder_payment(
                    block, proposer.fee_recipient
                ),
                claimed_by_relay={p.relay: p.value_claimed_wei for p in payloads},
                builder_pubkey=payloads[0].builder_pubkey if payloads else None,
                tx_value_contribution=contribution,
                private_tx_hashes=private_hashes,
                sanctioned_tx_hashes=tuple(
                    screener.screen_block(
                        result.receipts, result.traces, record.date
                    )
                ),
            )
        )
    return observations


@pytest.fixture(scope="module")
def collected_run():
    """(collected dataset, reference observations) of one run world."""
    world = build_world(small_test_config(num_days=5, blocks_per_day=8)).run()
    collected = collect_study_dataset(world)
    assert len(collected.table) > 0
    assert collected.inventory.relay_data_entries > 0
    return collected, reference_observations(world)


@pytest.fixture(scope="module")
def dataset_pair(collected_run):
    """(collected dataset, the same dataset with reference observations)."""
    collected, observations = collected_run
    return collected, dataclasses.replace(
        collected, table=BlockTable.from_observations(observations)
    )


def test_collected_blocks_match_reference(collected_run):
    collected, observations = collected_run
    assert collected.table.to_observations() == observations


def _comparable(value):
    """Normalize analysis results into exactly-comparable structures."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _comparable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {k: _comparable(v) for k, v in sorted(value.items(), key=repr)}
    if isinstance(value, Sequence) and not isinstance(value, (str, bytes)):
        return [_comparable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=repr)
    return value


#: name -> callable(dataset); covers the full public analysis surface
#: that takes a dataset.
ANALYSES = {
    "daily_pbs_share": adoption.daily_pbs_share,
    "identification_rule_breakdown": adoption.identification_rule_breakdown,
    "daily_block_value": blocks.daily_block_value,
    "daily_proposer_profit": blocks.daily_proposer_profit,
    "daily_block_size": blocks.daily_block_size,
    "daily_private_tx_share": blocks.daily_private_tx_share,
    "cluster_builders": builders.cluster_builders,
    "daily_builder_shares": builders.daily_builder_shares,
    "builder_profit_distribution": builders.builder_profit_distribution,
    "proposer_profit_by_builder": builders.proposer_profit_by_builder,
    "daily_profit_split": builders.daily_profit_split,
    "builder_map": builders.builder_map,
    "daily_compliant_relay_share": censorship.daily_compliant_relay_share,
    "daily_sanctioned_share": censorship.daily_sanctioned_share,
    "overall_sanctioned_shares": censorship.overall_sanctioned_shares,
    "sanctioned_blocks_by_relay": censorship.sanctioned_blocks_by_relay,
    "sanctioned_inclusion_delay_after_updates": (
        censorship.sanctioned_inclusion_delay_after_updates
    ),
    "daily_mev_per_block": mev.daily_mev_per_block,
    "daily_mev_value_share": mev.daily_mev_value_share,
    "bloxroute_ethical_sandwiches": mev.bloxroute_ethical_sandwiches,
    "mev_totals_by_kind": mev.mev_totals_by_kind,
    "daily_relay_shares": relays.daily_relay_shares,
    "multi_relay_share": relays.multi_relay_share,
    "builders_per_relay_daily": relays.builders_per_relay_daily,
    "relay_trust_table": relays.relay_trust_table,
    "pbs_totals_row": lambda ds: relays.pbs_totals_row(
        relays.relay_trust_table(ds)
    ),
    "daily_user_payment_shares": rewards.daily_user_payment_shares,
    "connectivity_report": network_structure.connectivity_report,
    "relay_overlap_matrix": network_structure.relay_overlap_matrix,
}


def _outcome(run, dataset):
    """Result of ``run`` — or its error, which must also match across
    datasets (e.g. graphs too sparse to analyze raise AnalysisError)."""
    from repro.errors import AnalysisError

    try:
        return _comparable(run(dataset))
    except AnalysisError as error:
        return ("AnalysisError", str(error))


@pytest.mark.parametrize("name", sorted(ANALYSES))
def test_backend_equivalence(name, dataset_pair):
    collected, reference = dataset_pair
    run = ANALYSES[name]
    assert _outcome(run, collected) == _outcome(run, reference)


def test_cluster_blocks_match_backends(dataset_pair):
    """Cluster membership selects the same block numbers."""
    collected, reference = dataset_pair

    def cluster_numbers(dataset):
        numbers = dataset.table.col("number")
        return [
            numbers[cluster.indices].tolist()
            for cluster in builders.cluster_builders(dataset)
        ]

    by_collected = cluster_numbers(collected)
    by_reference = cluster_numbers(reference)
    assert by_collected == by_reference
