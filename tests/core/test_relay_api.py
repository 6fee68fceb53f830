"""Unit tests for the relay data API store."""

from repro.core.relay_api import (
    BuilderSubmissionRecord,
    DeliveredPayload,
    RelayDataStore,
    ValidatorRegistration,
)
from repro.types import derive_address, derive_hash, derive_pubkey


def _registration(index=0):
    return ValidatorRegistration(
        relay="r",
        validator_pubkey=derive_pubkey("api", index),
        fee_recipient=derive_address("api", index),
        registered_slot=10,
    )


def _submission(slot=1, accepted=True):
    return BuilderSubmissionRecord(
        relay="r",
        slot=slot,
        block_number=slot,
        block_hash=derive_hash("api", slot),
        builder_pubkey=derive_pubkey("api", "builder"),
        value_claimed_wei=100,
        accepted=accepted,
    )


def _payload(slot=1):
    return DeliveredPayload(
        relay="r",
        slot=slot,
        block_number=slot,
        block_hash=derive_hash("api", slot),
        builder_pubkey=derive_pubkey("api", "builder"),
        proposer_pubkey=derive_pubkey("api", "proposer"),
        proposer_fee_recipient=derive_address("api", "fee"),
        value_claimed_wei=100,
    )


class TestRegistrations:
    def test_records_once_per_pubkey(self):
        store = RelayDataStore("r")
        store.record_registration(_registration(0))
        store.record_registration(_registration(0))  # refresh, not duplicate
        store.record_registration(_registration(1))
        assert len(store.get_validator_registrations()) == 2


class TestSubmissions:
    def test_filter_by_slot(self):
        store = RelayDataStore("r")
        store.record_submission(_submission(slot=1))
        store.record_submission(_submission(slot=2))
        assert [r.slot for r in store.get_builder_blocks_received()] == [1, 2]

    def test_rejections_recorded(self):
        store = RelayDataStore("r")
        store.record_submission(_submission(accepted=False))
        records = store.get_builder_blocks_received()
        assert not records[0].accepted


class TestInventory:
    def test_total_entries(self):
        store = RelayDataStore("r")
        store.record_registration(_registration())
        store.record_submission(_submission())
        store.record_delivery(_payload())
        assert store.total_entries() == 3


class TestQueryImmutability:
    """Queries return immutable views — a caller can never mutate the
    append-only store through a query result (regression: the old list
    copies invited `results.append(...)`-style accidents that silently
    diverged from the store)."""

    def _populated(self):
        store = RelayDataStore("r")
        store.record_registration(_registration())
        store.record_submission(_submission(slot=1))
        store.record_delivery(_payload(slot=1))
        return store

    def test_results_are_tuples(self):
        store = self._populated()
        assert isinstance(store.get_validator_registrations(), tuple)
        assert isinstance(store.get_builder_blocks_received(), tuple)
        assert isinstance(store.get_payloads_delivered(), tuple)

    def test_mutating_a_result_is_impossible_and_store_unchanged(self):
        import pytest

        store = self._populated()
        for result in (
            store.get_validator_registrations(),
            store.get_builder_blocks_received(),
            store.get_payloads_delivered(),
        ):
            with pytest.raises((TypeError, AttributeError)):
                result.append("bogus")
            with pytest.raises(TypeError):
                result[0] = "bogus"
        assert store.total_entries() == 3

    def test_rows_are_shared_not_copied(self):
        # Immutability comes from the container + frozen dataclasses;
        # the rows themselves are the store's own objects (no deep copy).
        store = self._populated()
        assert store.get_payloads_delivered()[0] is store.get_payloads_delivered()[0]
