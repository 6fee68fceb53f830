"""Typed error paths for payload delivery: relay, client, and auction.

Every branch that can lose a payload — nothing escrowed, wrong hash,
injected drop — must raise :class:`MissingPayloadError`, and each layer
above must degrade the way the protocol does: MEV-Boost keeps querying
its other relays, and the proposer falls back to local production only
when every serving relay fails.
"""

import pytest

from repro.core.auction import MODE_FALLBACK, SlotAuction
from repro.core.mev_boost import MevBoostClient
from repro.core.policies import BuilderAccess, RelayPolicy
from repro.core.proposer import LocalBlockBuilder
from repro.core.relay import Relay
from repro.errors import MissingPayloadError, RelayError

from test_pbs_flow import MiniWorld

SLOT = 1000


def _relay(name: str) -> Relay:
    return Relay(
        name=name,
        endpoint=f"https://{name}",
        policy=RelayPolicy(builder_access=BuilderAccess.PERMISSIONLESS),
    )


def _escrow_submission(world, relay=None):
    world.add_public_tx()
    submission = world.builder.build(world.context(), world.proposer)
    assert (relay or world.relay).receive_submission(submission, day=10)
    return submission


class TestDeliverPayload:
    def test_missing_payload_error_is_a_relay_error(self):
        assert issubclass(MissingPayloadError, RelayError)

    def test_empty_escrow_raises(self):
        relay = _relay("empty")
        with pytest.raises(MissingPayloadError, match="slot 1000"):
            relay.deliver_payload(SLOT, "0x" + "00" * 32)

    def test_wrong_block_hash_raises(self):
        world = MiniWorld()
        _escrow_submission(world)
        with pytest.raises(MissingPayloadError):
            world.relay.deliver_payload(SLOT, "0x" + "ff" * 32)

    def test_delivery_serves_escrow_and_records(self):
        world = MiniWorld()
        submission = _escrow_submission(world)
        served = world.relay.deliver_payload(SLOT, submission.block.block_hash)
        assert served is submission
        delivered = world.relay.data.get_payloads_delivered()
        assert [p.block_hash for p in delivered] == [submission.block.block_hash]

    def test_injected_drop_raises_and_clears_escrow(self):
        world = MiniWorld()
        submission = _escrow_submission(world)
        world.relay.drop_payload_slots = frozenset({SLOT})
        with pytest.raises(MissingPayloadError, match="dropped payload"):
            world.relay.deliver_payload(SLOT, submission.block.block_hash)
        assert world.relay.best_bid(SLOT) is None


class TestDropSlot:
    def test_missing_slot_is_a_no_op_by_default(self):
        _relay("r").drop_slot(SLOT)

    def test_drop_clears_escrow(self):
        world = MiniWorld()
        _escrow_submission(world)
        assert world.relay.best_bid(SLOT) is not None
        world.relay.drop_slot(SLOT)
        assert world.relay.best_bid(SLOT) is None


class TestMevBoostAccept:
    def _selection(self, world, extra_relays=()):
        client = MevBoostClient(
            {"test-relay": world.relay, **{r.name: r for r in extra_relays}}
        )
        menu = ("test-relay",) + tuple(r.name for r in extra_relays)
        selection = client.get_best_bid(SLOT, menu)
        assert selection is not None
        return client, selection

    def test_all_relays_failing_raises(self):
        world = MiniWorld()
        _escrow_submission(world)
        client, selection = self._selection(world)
        world.relay.drop_payload_slots = frozenset({SLOT})
        with pytest.raises(MissingPayloadError, match="no relay delivered"):
            client.accept(SLOT, selection)

    def test_surviving_relay_still_serves(self):
        """One relay losing the payload must not fail the multiplexer."""
        world = MiniWorld()
        other = _relay("other")
        submission = _escrow_submission(world)
        assert other.receive_submission(submission, day=10)
        client, selection = self._selection(world, extra_relays=(other,))
        assert set(selection.relays) == {"test-relay", "other"}
        other.drop_payload_slots = frozenset({SLOT})
        served, delivered = client.accept(SLOT, selection)
        assert served is submission
        assert delivered == ("test-relay",)

    def test_delivered_relays_subset_of_selection(self):
        world = MiniWorld()
        submission = _escrow_submission(world)
        client, selection = self._selection(world)
        served, delivered = client.accept(SLOT, selection)
        assert served is submission
        assert delivered == ("test-relay",)


class TestProposerFallback:
    def _auction(self, world, extra_relays=()):
        return SlotAuction(
            relays={"test-relay": world.relay, **{r.name: r for r in extra_relays}},
            builders={world.builder.name: world.builder},
            local_builder=LocalBlockBuilder(snapshot_lead_seconds=0.0),
        )

    def test_all_payloads_lost_falls_back_to_local(self):
        world = MiniWorld()
        world.add_public_tx()
        world.relay.drop_payload_slots = frozenset({SLOT})
        auction = self._auction(world)
        outcome = auction.run(world.context(), world.proposer)
        assert outcome.mode == MODE_FALLBACK
        assert outcome.winning_submission is None
        assert outcome.delivering_relays == ()
        assert outcome.block.fee_recipient == world.proposer.fee_recipient

    def test_outcome_reports_only_serving_relays(self):
        """The slot outcome must list the relays that actually delivered,
        not every relay that advertised the winning bid."""
        world = MiniWorld()
        other = _relay("other")
        world.add_public_tx()
        submission = world.builder.build(world.context(), world.proposer)
        assert world.relay.receive_submission(submission, day=10)
        assert other.receive_submission(submission, day=10)
        other.drop_payload_slots = frozenset({SLOT})
        auction = self._auction(world, extra_relays=(other,))
        outcome = auction.run(
            world.context(
                proposer_relays=("test-relay", "other"), active_builders={}
            ),
            world.proposer,
        )
        assert outcome.delivering_relays == ("test-relay",)
