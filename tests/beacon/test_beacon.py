"""Unit tests for the consensus-layer substrate."""

import datetime

import pytest

from repro.beacon.chain import BeaconBlockRecord, BeaconChain
from repro.beacon.schedule import ProposerSchedule, epoch_of_slot
from repro.beacon.validator import ValidatorRegistry
from repro.constants import SLOTS_PER_EPOCH
from repro.errors import BeaconError

DATE = datetime.date(2022, 10, 1)


@pytest.fixture
def registry():
    reg = ValidatorRegistry()
    reg.add_many("Lido", 10)
    reg.add_many("Coinbase", 5)
    reg.add("solo-0")
    return reg


class TestRegistry:
    def test_counts(self, registry):
        assert len(registry) == 16
        assert sum(1 for v in registry if v.entity == "Lido") == 10

    def test_pool_shares_fee_recipient(self, registry):
        recipients = {v.fee_recipient for v in registry if v.entity == "Lido"}
        assert len(recipients) == 1

    def test_unknown_index(self, registry):
        with pytest.raises(BeaconError):
            registry.by_index(99)

    def test_mev_boost_configuration(self, registry):
        validator = registry.by_index(0)
        validator.configure_mev_boost(("Flashbots",))
        assert validator.uses_mev_boost
        validator.disable_mev_boost()
        assert not validator.uses_mev_boost
        assert validator.relays == ()


class TestSchedule:
    def test_slot_arithmetic(self):
        assert epoch_of_slot(0) == 0
        assert epoch_of_slot(SLOTS_PER_EPOCH) == 1

    def test_negative_slot_rejected(self):
        with pytest.raises(BeaconError):
            epoch_of_slot(-1)

    def test_proposer_deterministic(self, registry):
        a = ProposerSchedule(registry, seed=1)
        b = ProposerSchedule(registry, seed=1)
        assert a.proposer_for_slot(7).index == b.proposer_for_slot(7).index

    def test_seed_changes_assignment(self, registry):
        a = ProposerSchedule(registry, seed=1)
        b = ProposerSchedule(registry, seed=2)
        picks_a = [a.proposer_for_slot(s).index for s in range(64)]
        picks_b = [b.proposer_for_slot(s).index for s in range(64)]
        assert picks_a != picks_b

    def test_empty_registry_rejected(self):
        with pytest.raises(BeaconError):
            ProposerSchedule(ValidatorRegistry(), seed=1).proposer_for_slot(0)

    def test_roughly_uniform(self, registry):
        schedule = ProposerSchedule(registry, seed=5)
        counts = {}
        for slot in range(3200):
            idx = schedule.proposer_for_slot(slot).index
            counts[idx] = counts.get(idx, 0) + 1
        # Every validator should propose at least once in 3200 slots.
        assert len(counts) == len(registry)


class TestBeaconChain:
    def _record(self, slot, missed=False):
        return BeaconBlockRecord(
            slot=slot,
            date=DATE,
            proposer_index=0,
            proposer_entity="Lido",
            execution_block_hash=None if missed else "0x" + "ab" * 32,
        )

    def test_append_and_lookup(self):
        chain = BeaconChain()
        chain.append(self._record(10))
        assert [record.slot for record in chain] == [10]
        assert len(chain) == 1

    def test_duplicate_slot_rejected(self):
        chain = BeaconChain()
        chain.append(self._record(10))
        with pytest.raises(BeaconError):
            chain.append(self._record(10))

    def test_out_of_order_rejected(self):
        chain = BeaconChain()
        chain.append(self._record(10))
        with pytest.raises(BeaconError):
            chain.append(self._record(9))

    def test_missed_slots(self):
        chain = BeaconChain()
        chain.append(self._record(1))
        chain.append(self._record(2, missed=True))
        assert chain.missed_count() == 1
        assert [r.slot for r in chain.proposed()] == [1]
        assert list(chain)[1].missed
