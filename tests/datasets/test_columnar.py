"""Columnar block-table tests: lossless round-trips, merge hygiene and
the dataset's block-order rule."""

from __future__ import annotations

import dataclasses
import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.collector import (
    StudyDataset,
    collect_study_dataset,
    merge_study_datasets,
)
from repro.datasets.columnar import BlockTable
from repro.datasets.records import BlockObservation, DatasetInventory
from repro.errors import DataError
from repro.mev.labels import MevDataset
from repro.perf.sharding import run_sharded
from repro.sanctions.ofac import SanctionsList
from repro.simulation.config import small_test_config

# Wei amounts deliberately straddle the int64 boundary so the object-dtype
# overflow path of the wei columns is exercised alongside the fast path.
wei_amounts = st.integers(min_value=0, max_value=10**25)
tx_hashes = st.text(alphabet="0123456789abcdef", min_size=4, max_size=12).map(
    lambda s: f"0x{s}"
)
relay_names = st.one_of(
    st.sampled_from(["Flashbots", "bloXroute (E)", "ultra sound", "agnostic"]),
    # Non-ASCII names force the unicode column fallback.
    st.text(min_size=1, max_size=10),
)
short_text = st.text(max_size=12)


@st.composite
def block_observations(draw, index: int = 0):
    claimed = draw(
        st.dictionaries(relay_names, wei_amounts, min_size=0, max_size=3)
    )
    contribution = draw(
        st.dictionaries(tx_hashes, wei_amounts, min_size=0, max_size=4)
    )
    private = draw(st.frozensets(tx_hashes, min_size=0, max_size=3))
    sanctioned = tuple(draw(st.lists(tx_hashes, min_size=0, max_size=3)))
    return BlockObservation(
        number=index,
        block_hash=draw(tx_hashes),
        slot=index * 2,
        date=datetime.date(2022, 10, 1)
        + datetime.timedelta(days=draw(st.integers(0, 30))),
        proposer_index=draw(st.integers(0, 500)),
        proposer_entity=draw(short_text),
        proposer_fee_recipient=draw(tx_hashes),
        fee_recipient=draw(tx_hashes),
        extra_data=draw(short_text),
        gas_used=draw(st.integers(0, 30_000_000)),
        gas_limit=30_000_000,
        base_fee_per_gas=draw(wei_amounts),
        burned_wei=draw(wei_amounts),
        priority_fees_wei=draw(wei_amounts),
        direct_transfers_wei=draw(wei_amounts),
        tx_count=draw(st.integers(0, 300)),
        private_tx_count=draw(st.integers(0, 50)),
        builder_payment_wei=draw(wei_amounts),
        claimed_by_relay=claimed,
        builder_pubkey=draw(st.one_of(st.none(), tx_hashes)),
        tx_value_contribution=contribution,
        private_tx_hashes=private,
        sanctioned_tx_hashes=sanctioned,
    )


@st.composite
def observation_lists(draw):
    size = draw(st.integers(min_value=0, max_value=12))
    return [draw(block_observations(index=i)) for i in range(size)]


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(observations=observation_lists())
    def test_from_to_observations_is_lossless(self, observations):
        """Every field — including the four ragged ones — survives exactly."""
        table = BlockTable.from_observations(observations)
        assert len(table) == len(observations)
        restored = table.to_observations()
        assert restored == observations

    @settings(max_examples=30, deadline=None)
    @given(observations=observation_lists())
    def test_row_views_match_observations(self, observations):
        table = BlockTable.from_observations(observations)
        for index, obs in enumerate(observations):
            row = table.row(index)
            assert row == obs
            assert row.claimed_by_relay == obs.claimed_by_relay
            assert row.tx_value_contribution == obs.tx_value_contribution
            assert row.private_tx_hashes == obs.private_tx_hashes
            assert row.sanctioned_tx_hashes == obs.sanctioned_tx_hashes

    @settings(max_examples=30, deadline=None)
    @given(observations=observation_lists())
    def test_concat_round_trips(self, observations):
        half = len(observations) // 2
        table = BlockTable.concat(
            [
                BlockTable.from_observations(observations[:half]),
                BlockTable.from_observations(observations[half:]),
            ]
        )
        assert table.to_observations() == observations


class TestMergeHygiene:
    def test_merge_does_not_mutate_inputs(self):
        """Regression: merging used to extend the first input's relay
        stores in place, double-counting entries on a second merge."""
        config = small_test_config(num_days=4, blocks_per_day=6, segment_days=2)
        run = run_sharded(config, check_oracles=False)
        parts = [delta.dataset for delta in run.deltas]
        before = [
            {
                name: relay.data.total_entries()
                for name, relay in part.relays.items()
            }
            for part in parts
        ]
        blocks_before = [len(part.table) for part in parts]

        first = merge_study_datasets(parts)
        second = merge_study_datasets(parts)

        after = [
            {
                name: relay.data.total_entries()
                for name, relay in part.relays.items()
            }
            for part in parts
        ]
        assert after == before
        assert [len(part.table) for part in parts] == blocks_before
        # Idempotence: a repeated merge of the same inputs is identical.
        assert first.content_digest() == second.content_digest()
        assert first.inventory == second.inventory

    def test_out_of_order_parts_raise(self):
        """Re-sorting only the blocks would leave the ePBS ledger, relay
        stores and MEV labels in the given order and move the digest."""
        config = small_test_config(
            num_days=4, blocks_per_day=6, segment_days=2, regime="epbs"
        )
        run = run_sharded(config, check_oracles=False)
        parts = [delta.dataset for delta in run.deltas]
        with pytest.raises(DataError, match="block order"):
            merge_study_datasets(parts[::-1])

    def test_merged_dates_are_the_union(self):
        config = small_test_config(num_days=4, blocks_per_day=6, segment_days=2)
        run = run_sharded(config, check_oracles=False)
        parts = [delta.dataset for delta in run.deltas]
        merged = merge_study_datasets(parts)
        expected = sorted({d for part in parts for d in part.table.dates()})
        assert merged.table.dates() == expected


class TestDatesCache:
    def test_collected_blocks_are_columnar_by_default(self):
        config = small_test_config(num_days=2, blocks_per_day=4)
        from repro.simulation.world import build_world

        dataset = collect_study_dataset(build_world(config))
        assert isinstance(dataset.table, BlockTable)
        assert not hasattr(dataset, "blocks")

    def test_hand_built_lists_become_columnar(self):
        config = small_test_config(num_days=2, blocks_per_day=4)
        from repro.simulation.world import build_world

        dataset = collect_study_dataset(build_world(config).run())
        observations = dataset.table.to_observations()
        rebuilt = dataclasses.replace(
            dataset, table=BlockTable.from_observations(observations)
        )
        assert rebuilt.table.to_observations() == observations
        assert rebuilt.content_digest() == dataset.content_digest()


def _dataset_of(observations: list[BlockObservation]) -> StudyDataset:
    """A hand-built dataset around ``observations`` and nothing else."""
    return StudyDataset(
        table=BlockTable.from_observations(observations),
        mev=MevDataset(),
        relays={},
        sanctions=SanctionsList(),
        inventory=DatasetInventory(
            blocks=len(observations),
            transactions=0,
            logs=0,
            traces=0,
            mev_labels_by_source={},
            mev_labels_union=0,
            mempool_arrival_times=0,
            relay_data_entries=0,
            ofac_addresses=0,
        ),
    )


class TestBlockOrder:
    """A dataset's rows are in block order, checked once at construction."""

    @staticmethod
    def _blocks(numbers, days):
        start = datetime.date(2022, 10, 1)
        return [
            BlockObservation(
                number=number,
                block_hash=f"0x{number:04x}",
                slot=number,
                date=start + datetime.timedelta(days=day),
                proposer_index=0,
                proposer_entity="solo",
                proposer_fee_recipient="0xaa",
                fee_recipient="0xaa",
                extra_data="",
                gas_used=0,
                gas_limit=30_000_000,
                base_fee_per_gas=7,
                burned_wei=0,
                priority_fees_wei=0,
                direct_transfers_wei=0,
                tx_count=0,
                private_tx_count=0,
                builder_payment_wei=0,
            )
            for number, day in zip(numbers, days)
        ]

    def test_ordered_blocks_are_accepted(self):
        dataset = _dataset_of(self._blocks([1, 2, 5], [0, 0, 1]))
        assert dataset.table.col("number").tolist() == [1, 2, 5]

    def test_empty_table_is_accepted(self):
        assert len(_dataset_of([]).table) == 0

    def test_repeated_block_number_raises(self):
        with pytest.raises(DataError, match="block order"):
            _dataset_of(self._blocks([1, 2, 2], [0, 0, 0]))

    def test_decreasing_block_number_raises(self):
        with pytest.raises(DataError, match="block order"):
            _dataset_of(self._blocks([1, 3, 2], [0, 0, 0]))

    def test_decreasing_date_raises(self):
        with pytest.raises(DataError, match="block order"):
            _dataset_of(self._blocks([1, 2, 3], [0, 1, 0]))
