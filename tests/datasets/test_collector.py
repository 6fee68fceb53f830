"""Tests for dataset collection over the small session world."""

from repro.datasets import collect_study_dataset
from repro.mempool.observer import DEFAULT_OBSERVER_COUNT


class TestBlockObservations:
    def test_one_observation_per_block(self, small_world, small_dataset):
        assert len(small_dataset.table) == len(small_world.chain)

    def test_values_consistent(self, small_dataset):
        for obs in small_dataset.table.to_observations():
            assert obs.block_value_wei == (
                obs.priority_fees_wei + obs.direct_transfers_wei
            )
            assert 0 <= obs.private_tx_count <= obs.tx_count
            assert obs.gas_used <= obs.gas_limit

    def test_pbs_identification_rules(self, small_world, small_dataset):
        ground_truth = {
            record.block_number: record.mode == "pbs"
            for record in small_world.slot_records
        }
        for obs in small_dataset.table.to_observations():
            assert obs.is_pbs == ground_truth[obs.number], obs.number

    def test_pbs_split_partition(self, small_dataset):
        rows = small_dataset.table.to_observations()
        pbs = [obs for obs in rows if obs.is_pbs]
        non_pbs = [obs for obs in rows if not obs.is_pbs]
        assert len(pbs) + len(non_pbs) == len(rows)
        assert len(pbs) == int(small_dataset.table.is_pbs.sum())

    def test_proposer_profit_definitions(self, small_dataset):
        for obs in small_dataset.table.to_observations():
            if not obs.is_pbs:
                # Non-PBS proposers keep the entire block value.
                assert obs.proposer_profit_wei == obs.block_value_wei
                assert obs.builder_profit_wei == 0
            elif obs.fee_recipient != obs.proposer_fee_recipient:
                assert obs.proposer_profit_wei == obs.builder_payment_wei
                assert (
                    obs.builder_profit_wei
                    == obs.block_value_wei - obs.builder_payment_wei
                )

    def test_payment_matches_ground_truth(self, small_world, small_dataset):
        payments = {
            record.block_number: record.payment_wei
            for record in small_world.slot_records
            if record.mode == "pbs"
        }
        for obs in small_dataset.table.to_observations():
            if obs.number in payments and obs.has_pbs_payment:
                assert obs.builder_payment_wei == payments[obs.number]

    def test_private_classification_catches_payment_tx(self, small_dataset):
        # Every PBS block's payment transaction never hit the mempool, so
        # PBS blocks must show at least one private transaction.
        for obs in small_dataset.table.to_observations():
            if obs.has_pbs_payment:
                assert obs.private_tx_count >= 1

    def test_dates_sorted(self, small_dataset):
        ordinals = small_dataset.table.date_ordinal.tolist()
        assert ordinals == sorted(ordinals)


class TestInventory:
    def test_counts_match_world(self, small_world, small_dataset):
        inventory = small_dataset.inventory
        assert inventory.blocks == len(small_world.chain)
        assert inventory.transactions == small_world.chain.total_transactions()
        assert inventory.logs == small_world.chain.total_logs()
        assert inventory.traces == small_world.chain.total_trace_frames()
        assert inventory.ofac_addresses == 134

    def test_mev_sources_reported(self, small_dataset):
        sources = small_dataset.inventory.mev_labels_by_source
        assert set(sources) == {"eigenphi", "zeromev", "weintraub"}
        assert small_dataset.inventory.mev_labels_union <= sum(sources.values())

    def test_arrival_records_multiple_of_observers(
        self, small_world, small_dataset
    ):
        observers = min(DEFAULT_OBSERVER_COUNT, small_world.network.node_count)
        assert small_dataset.inventory.mempool_arrival_times % observers == 0

    def test_relay_entries_positive(self, small_dataset):
        assert small_dataset.inventory.relay_data_entries > 0


class TestRelayJoin:
    def test_compliant_relays_from_policies(self, small_dataset):
        assert small_dataset.compliant_relays == {
            "Blocknative", "bloXroute (R)", "Eden", "Flashbots",
        }

    def test_claimed_values_positive(self, small_dataset):
        for obs in small_dataset.table.to_observations():
            for value in obs.claimed_by_relay.values():
                assert value >= 0

    def test_relay_claims_have_pubkeys(self, small_dataset):
        for obs in small_dataset.table.to_observations():
            if obs.relay_claimed:
                assert obs.builder_pubkey is not None
