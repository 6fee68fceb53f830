"""Edge-case tests for the MEV-Boost client."""

import pytest

from repro.core.mev_boost import MevBoostClient
from repro.core.policies import BuilderAccess, RelayPolicy
from repro.core.relay import Relay
from repro.errors import RelayError

from test_pbs_flow import MiniWorld


def _relay(name):
    return Relay(
        name=name,
        endpoint=f"https://{name}",
        policy=RelayPolicy(builder_access=BuilderAccess.PERMISSIONLESS),
    )


class TestMevBoostEdges:
    def test_unknown_relays_in_menu_skipped(self):
        world = MiniWorld()
        world.add_public_tx()
        submission = world.builder.build(world.context(), world.proposer)
        world.relay.receive_submission(submission, day=10)
        client = MevBoostClient({"test-relay": world.relay})
        selection = client.get_best_bid(
            1000, ("ghost-relay", "test-relay", "another-ghost")
        )
        assert selection is not None
        assert selection.relays == ("test-relay",)

    def test_relay_without_bid_ignored(self):
        world = MiniWorld()
        empty = _relay("empty")
        world.add_public_tx()
        submission = world.builder.build(world.context(), world.proposer)
        world.relay.receive_submission(submission, day=10)
        client = MevBoostClient({"test-relay": world.relay, "empty": empty})
        selection = client.get_best_bid(1000, ("empty", "test-relay"))
        assert selection is not None
        assert "empty" not in selection.relays

    def test_relay_specific_claims_drive_selection(self):
        world = MiniWorld()
        other = _relay("other")
        world.add_public_tx()
        submission = world.builder.build(world.context(), world.proposer)
        # Same block, but the builder told "other" a juiced number.
        submission.claimed_by_relay = {
            "other": submission.payment_wei * 10
        }
        world.relay.receive_submission(submission, day=10)
        other.validation_miss_rate = 1.0  # other never validates
        other.receive_submission(submission, day=10)
        client = MevBoostClient({"test-relay": world.relay, "other": other})
        selection = client.get_best_bid(1000, ("test-relay", "other"))
        assert selection.claimed_value_wei == submission.payment_wei * 10

    def test_accept_requires_serving_relay(self):
        world = MiniWorld()
        client = MevBoostClient({"test-relay": world.relay})
        from repro.core.mev_boost import BidSelection

        bogus = BidSelection(
            block_hash="0x" + "00" * 32,
            claimed_value_wei=1,
            relays=(),
        )
        with pytest.raises(RelayError):
            client.accept(1000, bogus)

    def test_drop_slot_clears_escrow(self):
        world = MiniWorld()
        world.add_public_tx()
        submission = world.builder.build(world.context(), world.proposer)
        world.relay.receive_submission(submission, day=10)
        assert world.relay.best_bid(1000) is not None
        world.relay.drop_slot(1000)
        assert world.relay.best_bid(1000) is None
