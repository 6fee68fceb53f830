"""Tests for the enshrined-PBS counterfactual."""

from types import SimpleNamespace

import pytest

from repro.beacon.builders import (
    MIN_BUILDER_DEPOSIT_WEI,
    BuilderRegistry,
    EpbsLedger,
)
from repro.constants import MERGE_DATE
from repro.core.builder import gross_overclaim_boundary
from repro.core.epbs import (
    MODE_EPBS,
    MODE_EPBS_EMPTY,
    PTC_SIZE,
    EnshrinedPBSAuction,
)
from repro.core.proposer import LocalBlockBuilder
from repro.datasets import collect_study_dataset
from repro.datasets.columnar import BlockTable
from repro.datasets.records import BlockObservation
from repro.simulation import build_world
from repro.simulation.config import small_test_config
from repro.testing.scenarios import _gross_overpromises

from test_pbs_flow import MiniWorld


def _staked_auction(world):
    """An auction whose one builder is staked and active from day 0."""
    ledger = EpbsLedger()
    registry = BuilderRegistry(world.state, ledger=ledger)
    registry.submit_deposit(
        world.builder.name,
        pubkey=world.builder.pubkeys[0],
        address=world.builder.address,
        genesis=True,
    )
    registry.process_day(0)
    return EnshrinedPBSAuction(
        builders={world.builder.name: world.builder},
        local_builder=LocalBlockBuilder(snapshot_lead_seconds=0.0),
        registry=registry,
        ledger=ledger,
    )


class TestEnshrinedAuction:
    def test_wins_without_relays(self):
        world = MiniWorld()
        world.add_public_tx()
        auction = _staked_auction(world)
        outcome = auction.run(world.context(), world.proposer, ["test-builder"])
        assert outcome.mode == MODE_EPBS
        assert outcome.delivering_relays == ()
        assert outcome.winning_submission is not None

    def test_runs_even_without_mev_boost_opt_in(self):
        # ePBS is enshrined: opt-in status is irrelevant.
        world = MiniWorld()
        world.proposer.disable_mev_boost()
        world.add_public_tx()
        outcome = _staked_auction(world).run(
            world.context(), world.proposer, ["test-builder"]
        )
        assert outcome.mode == MODE_EPBS

    def test_no_bids_falls_back_to_local(self):
        world = MiniWorld()
        world.add_public_tx()
        outcome = _staked_auction(world).run(world.context(), world.proposer, [])
        assert outcome.mode == "local"

    def test_commitment_enforced_on_shortfall(self):
        world = MiniWorld()
        world.add_public_tx()
        auction = _staked_auction(world)
        # The builder overclaims massively; the protocol settles the
        # difference from its collateral.
        world.builder.scripted_mispromise = {
            10: (10**18, 10**15)  # claim 1 ETH, embed 0.001 ETH
        }
        outcome = auction.run(world.context(), world.proposer, ["test-builder"])
        submission = outcome.winning_submission
        assert submission is not None
        # Settlement is recorded on the outcome; the submission itself
        # must never be rewritten (the embedded payment stays what the
        # payload actually paid).
        assert submission.payment_wei == 10**15
        assert outcome.bid_wei == submission.claimed_value_wei
        assert (
            outcome.settled_shortfall_wei
            == submission.claimed_value_wei - submission.payment_wei
        )
        assert (
            submission.payment_wei + outcome.settled_shortfall_wei
            >= submission.claimed_value_wei
        )
        # The settlement came out of the builder's escrowed collateral.
        record = auction.registry.record(world.builder.name)
        assert record.collateral_wei <= (
            MIN_BUILDER_DEPOSIT_WEI - outcome.settled_shortfall_wei
        )

    def test_invalid_payload_rejected_by_protocol(self):
        world = MiniWorld()
        world.builder.timestamp_bug_days = frozenset({10})
        world.add_public_tx()
        outcome = _staked_auction(world).run(
            world.context(), world.proposer, ["test-builder"]
        )
        assert outcome.mode == "pbs-fallback"


@pytest.mark.parametrize("paid", [10**15, 10**17])  # floor / ratio branch
@pytest.mark.parametrize("excess_wei, gross", [(0, False), (1, True)])
@pytest.mark.parametrize("checker", ["epbs-slashing", "relay-detector"])
def test_gross_overclaim_boundary(checker, excess_wei, gross, paid):
    """A claim at the boundary is not gross; one wei above it is, for
    both the ePBS slashing and the relay-trust detector."""
    claim = gross_overclaim_boundary(paid) + excess_wei
    if checker == "epbs-slashing":
        world = MiniWorld()
        world.add_public_tx()
        auction = _staked_auction(world)
        world.builder.scripted_mispromise = {10: (claim, paid)}
        outcome = auction.run(world.context(), world.proposer, ["test-builder"])
        submission = outcome.winning_submission
        assert submission.claimed_value_wei == claim
        assert submission.payment_wei == paid
        assert auction.registry.record(world.builder.name).slashed is gross
    else:
        # The proposer is its own fee recipient, so the block value is
        # what was delivered.
        block = BlockObservation(
            number=1,
            block_hash="0x01",
            slot=1,
            date=MERGE_DATE,
            proposer_index=0,
            proposer_entity="solo",
            proposer_fee_recipient="0xaa",
            fee_recipient="0xaa",
            extra_data="",
            gas_used=0,
            gas_limit=30_000_000,
            base_fee_per_gas=7,
            burned_wei=0,
            priority_fees_wei=paid,
            direct_transfers_wei=0,
            tx_count=0,
            private_tx_count=0,
            builder_payment_wei=0,
            claimed_by_relay={"test-relay": claim},
        )
        assert block.delivered_value_wei == paid
        anomalies = _gross_overpromises(
            SimpleNamespace(builders={}, relays={}),
            SimpleNamespace(table=BlockTable.from_observations([block])),
        )
        assert [a.kind for a in anomalies] == (
            ["gross-overpromise"] if gross else []
        )


class TestPayloadTimelinessCommittee:
    def _auction(self, world, rate=0.0, days=frozenset()):
        auction = _staked_auction(world)
        auction.ptc_equivocation = {day: rate for day in days}
        return auction

    def test_quorum_is_majority(self):
        world = MiniWorld()
        auction = self._auction(world)
        assert auction.ptc_quorum == PTC_SIZE // 2 + 1

    def test_equivocations_below_quorum_boundary_still_reveal(self):
        # 3 of 8 seats equivocate: 5 honest votes == quorum → payload lands.
        world = MiniWorld()
        world.add_public_tx()
        auction = self._auction(world, rate=3 / PTC_SIZE, days={10})
        outcome = auction.run(world.context(), world.proposer, ["test-builder"])
        assert outcome.mode == MODE_EPBS
        assert outcome.block is not None

    def test_equivocations_at_quorum_boundary_empty_slot(self):
        # 4 of 8 seats equivocate: 4 honest votes < quorum of 5 → no payload.
        world = MiniWorld()
        world.add_public_tx()
        auction = self._auction(world, rate=4 / PTC_SIZE, days={10})
        outcome = auction.run(world.context(), world.proposer, ["test-builder"])
        assert outcome.mode == MODE_EPBS_EMPTY
        assert outcome.block is None
        assert outcome.winning_submission is not None

    def test_equivocation_outside_fault_day_is_honest(self):
        world = MiniWorld()
        world.add_public_tx()
        auction = self._auction(world, rate=1.0, days={99})
        outcome = auction.run(world.context(), world.proposer, ["test-builder"])
        assert outcome.mode == MODE_EPBS


class TestEnshrinedWorld:
    @pytest.fixture(scope="class")
    def epbs_world(self):
        config = small_test_config(regime="epbs")
        return build_world(config).run()

    def test_no_relay_data(self, epbs_world):
        total = sum(
            relay.data.total_entries() for relay in epbs_world.relays.values()
        )
        assert total == 0

    def test_epbs_blocks_dominate(self, epbs_world):
        modes = [record.mode for record in epbs_world.slot_records]
        assert modes.count("epbs") > len(modes) * 0.5

    def test_value_always_delivered(self, epbs_world):
        # The headline counterfactual: embedded payment plus escrow
        # settlement covers the committed bid on every ePBS slot.
        for record in epbs_world.slot_records:
            if record.mode == "epbs":
                assert (
                    record.payment_wei + record.settled_wei
                    >= record.claimed_wei
                )

    def test_censorship_not_solved(self, epbs_world):
        # Value enforcement does nothing for censorship: sanctioned
        # transactions still land (or not) per builder behaviour.
        dataset = collect_study_dataset(epbs_world)
        assert dataset.table.is_sanctioned.any() or (
            len(dataset.table) < 200  # tiny worlds may see none; not a fail
        )
