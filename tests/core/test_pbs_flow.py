"""Integration-grade unit tests for the PBS core: builder, relay,
MEV-Boost and the slot auction, wired over a miniature world."""

import datetime

import numpy as np
import pytest

from repro.beacon.validator import ValidatorRegistry
from repro.chain.execution import ExecutionContext, ExecutionEngine
from repro.chain.state import WorldState
from repro.chain.transaction import (
    EthTransfer,
    TipCoinbase,
    TransactionFactory,
)
from repro.core.auction import MODE_FALLBACK, MODE_LOCAL, MODE_PBS, SlotAuction
from repro.core.builder import BlockBuilder, FixedMargin, Proportional
from repro.core.context import SlotContext
from repro.core.mev_boost import MevBoostClient
from repro.core.policies import (
    BuilderAccess,
    CensorshipPolicy,
    MevFilterPolicy,
    RelayPolicy,
)
from repro.core.proposer import LocalBlockBuilder
from repro.core.relay import Relay
from repro.defi.oracle import PriceOracle
from repro.defi.registry import DefiProtocols
from repro.errors import MissingPayloadError
from repro.mempool.network import P2PNetwork
from repro.mempool.pool import SharedMempool
from repro.mempool.private import PrivateOrderFlow
from repro.mev.bundles import KIND_ARBITRAGE, make_bundle
from repro.sanctions.ofac import SanctionsList
from repro.types import derive_address, derive_pubkey, ether, gwei

DATE = datetime.date(2022, 11, 20)
USER = derive_address("pbsflow", "user")
SANCTIONED = derive_address("pbsflow", "bad")
SEARCHER = derive_address("pbsflow", "searcher")


class MiniWorld:
    """A one-slot PBS microcosm shared by these tests."""

    def __init__(self, sanction_listed: datetime.date | None = None):
        self.factory = TransactionFactory()
        self.state = WorldState()
        oracle = PriceOracle({"ETH": 1500.0})
        self.defi = DefiProtocols.create(oracle)
        self.engine = ExecutionEngine()
        self.network = P2PNetwork(np.random.default_rng(4), node_count=8, degree=3)
        self.mempool = SharedMempool(self.network)
        self.private_flow = PrivateOrderFlow()
        self.sanctions = SanctionsList()
        if sanction_listed is not None:
            self.sanctions.add(SANCTIONED, sanction_listed)

        registry = ValidatorRegistry()
        self.proposer = registry.add("Lido")
        self.proposer.configure_mev_boost(("test-relay",))

        for account in (USER, SANCTIONED, SEARCHER):
            self.state.mint(account, ether(100))

        self.builder = BlockBuilder(
            name="test-builder",
            address=derive_address("pbsflow", "builder"),
            pubkeys=(derive_pubkey("pbsflow", "builder"),),
            bid_policy=Proportional(proposer_share=0.9),
            relays=("test-relay",),
        )
        self.state.mint(self.builder.address, ether(1_000))

        self.relay = Relay(
            name="test-relay",
            endpoint="https://test",
            policy=RelayPolicy(builder_access=BuilderAccess.PERMISSIONLESS),
        )
        self.bundles: dict[str, list] = {}

    def context(self, slot=1000) -> SlotContext:
        return SlotContext(
            slot=slot,
            day=10,
            date=DATE,
            timestamp=1_700_000_000,
            block_number=1,
            parent_hash="0x" + "0" * 64,
            base_fee=gwei(10),
            gas_limit=30_000_000,
            canonical_ctx=ExecutionContext(state=self.state, protocols=self.defi),
            engine=self.engine,
            mempool=self.mempool,
            private_flow=self.private_flow,
            bundles_by_builder=self.bundles,
            sanctions=self.sanctions,
            rng=np.random.default_rng(2),
            tx_factory=self.factory,
            build_cutoff_time=10_000.0,
        )

    def add_public_tx(self, sender=USER, priority=2, when=100.0):
        tx = self.factory.create(
            sender,
            0,
            [EthTransfer(derive_address("pbsflow", "to"), ether(0.1))],
            gwei(30),
            gwei(priority),
        )
        self.mempool.broadcast(tx, 0, when)
        return tx

    def add_bundle(self, bid_eth=0.05):
        bid = ether(bid_eth)
        tx = self.factory.create(
            SEARCHER, 0, [TipCoinbase(bid)], gwei(30), gwei(1)
        )
        bundle = make_bundle("searcher", [tx], KIND_ARBITRAGE, bid, bid)
        self.bundles.setdefault(self.builder.name, []).append(bundle)
        return bundle


class _BuggyEngine(ExecutionEngine):
    """Raises an error that is not an inclusion failure for one sender."""

    def __init__(self, sender):
        self.sender = sender

    def execute_transaction(self, tx, *args, **kwargs):
        if tx.sender == self.sender:
            raise RuntimeError("bug under execution")
        return super().execute_transaction(tx, *args, **kwargs)


class TestBuilder:
    def test_builds_block_with_payment(self):
        world = MiniWorld()
        world.add_public_tx()
        submission = world.builder.build(world.context(), world.proposer)
        assert submission is not None
        block = submission.block
        # Fee recipient is the builder; last tx pays the proposer.
        assert block.fee_recipient == world.builder.address
        last = block.last_transaction
        assert last.sender == world.builder.address
        transfer = last.actions[0]
        assert transfer.recipient == world.proposer.fee_recipient
        assert transfer.value_wei == submission.payment_wei
        assert submission.claimed_value_wei == submission.payment_wei

    def test_payment_follows_bid_policy(self):
        world = MiniWorld()
        world.add_bundle(bid_eth=1.0)
        submission = world.builder.build(world.context(), world.proposer)
        value = submission.result.block_value_wei
        assert submission.payment_wei == int(value * 0.9)

    def test_fixed_margin_policy(self):
        world = MiniWorld()
        world.builder.bid_policy = FixedMargin(margin_wei=ether(0.001))
        world.add_bundle(bid_eth=1.0)
        submission = world.builder.build(world.context(), world.proposer)
        value = submission.result.block_value_wei
        assert submission.payment_wei == value - ether(0.001)

    def test_bundle_included_atomically(self):
        world = MiniWorld()
        bundle = world.add_bundle()
        submission = world.builder.build(world.context(), world.proposer)
        included = {tx.tx_hash for tx in submission.block.transactions}
        assert set(bundle.tx_hashes) <= included

    def test_conflicting_bundles_deduped(self):
        world = MiniWorld()
        first = world.add_bundle(bid_eth=0.5)
        second = world.add_bundle(bid_eth=0.2)
        object.__setattr__(second, "conflict_key", first.conflict_key)
        submission = world.builder.build(world.context(), world.proposer)
        included = {tx.tx_hash for tx in submission.block.transactions}
        assert set(first.tx_hashes) <= included
        assert not set(second.tx_hashes) & included

    @pytest.mark.parametrize("failing", ["loose", "bundle", "payment"])
    def test_unexpected_errors_propagate(self, failing):
        # Only inclusion failures drop a candidate; anything else is a bug
        # and must not silently shrink the block.
        world = MiniWorld()
        world.add_public_tx()
        world.add_bundle()
        world.engine = _BuggyEngine(
            {"loose": USER, "bundle": SEARCHER, "payment": world.builder.address}[
                failing
            ]
        )
        with pytest.raises(RuntimeError, match="bug under execution"):
            world.builder.build(world.context(), world.proposer)

    def test_empty_world_builds_nothing(self):
        world = MiniWorld()
        assert world.builder.build(world.context(), world.proposer) is None

    def test_self_censoring_builder_drops_sanctioned(self):
        listed = DATE - datetime.timedelta(days=10)
        world = MiniWorld(sanction_listed=listed)
        world.builder.self_censors = True
        clean = world.add_public_tx()
        dirty = world.add_public_tx(sender=SANCTIONED)
        submission = world.builder.build(world.context(), world.proposer)
        included = {tx.tx_hash for tx in submission.block.transactions}
        assert clean.tx_hash in included
        assert dirty.tx_hash not in included

    def test_censoring_builder_lag_misses_fresh_listings(self):
        # Listed yesterday; builder refreshes with a 3-day lag.
        listed = DATE - datetime.timedelta(days=1)
        world = MiniWorld(sanction_listed=listed)
        world.builder.self_censors = True
        world.builder.sanctions_lag_days = 3
        dirty = world.add_public_tx(sender=SANCTIONED)
        submission = world.builder.build(world.context(), world.proposer)
        included = {tx.tx_hash for tx in submission.block.transactions}
        assert dirty.tx_hash in included  # the gap the paper measures

    def test_pays_via_proposer_recipient(self):
        world = MiniWorld()
        world.builder.pays_via_proposer_recipient = True
        world.add_public_tx()
        submission = world.builder.build(world.context(), world.proposer)
        assert submission.block.fee_recipient == world.proposer.fee_recipient
        assert submission.payment_wei == submission.result.block_value_wei


class TestRelay:
    def _submission(self, world):
        world.add_public_tx()
        return world.builder.build(world.context(), world.proposer)

    def test_accepts_and_serves_best_bid(self):
        world = MiniWorld()
        submission = self._submission(world)
        assert world.relay.receive_submission(submission, day=10)
        assert world.relay.best_bid(1000) is submission

    def test_rejects_unknown_builder_under_internal_policy(self):
        world = MiniWorld()
        world.relay.policy = RelayPolicy(builder_access=BuilderAccess.INTERNAL)
        submission = self._submission(world)
        assert not world.relay.receive_submission(submission, day=10)
        records = world.relay.data.get_builder_blocks_received()
        assert records[-1].rejection_reason == "builder not admitted"

    def test_rejects_overclaimed_payment(self):
        world = MiniWorld()
        submission = self._submission(world)
        submission.claimed_value_wei = submission.payment_wei + 1
        assert not world.relay.receive_submission(submission, day=10)

    def test_validation_outage_accepts_overclaim(self):
        world = MiniWorld()
        world.relay.validation_outage_days = frozenset({10})
        submission = self._submission(world)
        submission.claimed_by_relay = {"test-relay": submission.payment_wei * 50}
        assert world.relay.receive_submission(submission, day=10)
        assert world.relay.best_bid(1000).claimed_for("test-relay") == (
            submission.payment_wei * 50
        )

    def test_ofac_filter_blocks_sanctioned(self):
        listed = DATE - datetime.timedelta(days=10)
        world = MiniWorld(sanction_listed=listed)
        world.relay.policy = RelayPolicy(
            builder_access=BuilderAccess.PERMISSIONLESS,
            censorship=CensorshipPolicy.OFAC_COMPLIANT,
        )
        world.relay.refresh_sanctions_view(world.sanctions, DATE)
        world.add_public_tx(sender=SANCTIONED)
        submission = world.builder.build(world.context(), world.proposer)
        assert not world.relay.receive_submission(submission, day=10)

    def test_stale_ofac_copy_lets_fresh_listings_through(self):
        listed = DATE - datetime.timedelta(days=1)
        world = MiniWorld(sanction_listed=listed)
        world.relay.policy = RelayPolicy(
            builder_access=BuilderAccess.PERMISSIONLESS,
            censorship=CensorshipPolicy.OFAC_COMPLIANT,
        )
        world.relay.sanctions_lag_days = 5
        world.relay.refresh_sanctions_view(world.sanctions, DATE)
        world.add_public_tx(sender=SANCTIONED)
        submission = world.builder.build(world.context(), world.proposer)
        assert world.relay.receive_submission(submission, day=10)

    def test_higher_bid_replaces_best(self):
        world = MiniWorld()
        low = self._submission(world)
        world.relay.receive_submission(low, day=10)
        world.add_bundle(bid_eth=2.0)
        high = world.builder.build(world.context(), world.proposer)
        world.relay.receive_submission(high, day=10)
        assert world.relay.best_bid(1000) is high

    def test_deliver_payload_records(self):
        world = MiniWorld()
        submission = self._submission(world)
        world.relay.receive_submission(submission, day=10)
        delivered = world.relay.deliver_payload(1000, submission.block.block_hash)
        assert delivered is submission
        payloads = world.relay.data.get_payloads_delivered()
        assert len(payloads) == 1
        assert payloads[0].value_claimed_wei == submission.claimed_value_wei

    def test_deliver_unknown_payload_raises(self):
        world = MiniWorld()
        with pytest.raises(MissingPayloadError):
            world.relay.deliver_payload(1000, "0x" + "ab" * 32)


class TestAuctionModes:
    def _auction(self, world):
        return SlotAuction(
            relays={"test-relay": world.relay},
            builders={world.builder.name: world.builder},
            local_builder=LocalBlockBuilder(snapshot_lead_seconds=0.0),
        )

    def test_pbs_path(self):
        world = MiniWorld()
        world.add_public_tx()
        auction = self._auction(world)
        outcome = auction.run(world.context(), world.proposer, ["test-builder"])
        assert outcome.mode == MODE_PBS
        assert outcome.delivering_relays == ("test-relay",)
        assert outcome.winning_submission is not None

    def test_local_when_no_mev_boost(self):
        world = MiniWorld()
        world.proposer.disable_mev_boost()
        world.add_public_tx()
        auction = self._auction(world)
        outcome = auction.run(world.context(), world.proposer, ["test-builder"])
        assert outcome.mode == MODE_LOCAL
        assert outcome.block.fee_recipient == world.proposer.fee_recipient

    def test_local_when_no_bids(self):
        world = MiniWorld()
        world.add_public_tx()
        auction = self._auction(world)
        outcome = auction.run(world.context(), world.proposer, [])
        assert outcome.mode == MODE_LOCAL

    def test_fallback_on_invalid_timestamp(self):
        world = MiniWorld()
        world.builder.timestamp_bug_days = frozenset({10})
        world.add_public_tx()
        auction = self._auction(world)
        outcome = auction.run(world.context(), world.proposer, ["test-builder"])
        assert outcome.mode == MODE_FALLBACK
        assert outcome.block.fee_recipient == world.proposer.fee_recipient
        # The node rejects the payload only AFTER signing: the relay has
        # already recorded a delivery for a block that never lands on chain
        # (the trust structure the paper highlights).
        delivered = world.relay.data.get_payloads_delivered()
        assert len(delivered) == 1
        assert delivered[0].block_hash != outcome.block.block_hash

    def test_outcome_commit_applies_state(self):
        world = MiniWorld()
        tx = world.add_public_tx()
        auction = self._auction(world)
        ctx = world.context()
        outcome = auction.run(ctx, world.proposer, ["test-builder"])
        assert world.state.nonce_of(USER) == 0  # not yet applied
        outcome.speculative_ctx.commit()
        assert world.state.nonce_of(USER) == 1


class TestMevBoost:
    def test_picks_highest_claim_across_relays(self):
        world = MiniWorld()
        relay_b = Relay(
            name="relay-b",
            endpoint="https://b",
            policy=RelayPolicy(builder_access=BuilderAccess.PERMISSIONLESS),
        )
        world.add_bundle(bid_eth=0.4)
        submission = world.builder.build(world.context(), world.proposer)
        world.relay.receive_submission(submission, day=10)
        # relay-b holds a juiced claim for the same slot from elsewhere.
        world.bundles.clear()
        world.add_bundle(bid_eth=1.5)
        richer = world.builder.build(world.context(), world.proposer)
        relay_b.receive_submission(richer, day=10)

        client = MevBoostClient({"test-relay": world.relay, "relay-b": relay_b})
        selection = client.get_best_bid(1000, ("test-relay", "relay-b"))
        assert selection.relays == ("relay-b",)
        assert selection.block_hash == richer.block.block_hash

    def test_multi_relay_same_block(self):
        world = MiniWorld()
        relay_b = Relay(
            name="relay-b",
            endpoint="https://b",
            policy=RelayPolicy(builder_access=BuilderAccess.PERMISSIONLESS),
        )
        world.add_public_tx()
        submission = world.builder.build(world.context(), world.proposer)
        world.relay.receive_submission(submission, day=10)
        relay_b.receive_submission(submission, day=10)
        client = MevBoostClient({"test-relay": world.relay, "relay-b": relay_b})
        selection = client.get_best_bid(1000, ("test-relay", "relay-b"))
        assert set(selection.relays) == {"test-relay", "relay-b"}
        client.accept(1000, selection)
        assert len(world.relay.data.get_payloads_delivered()) == 1
        assert len(relay_b.data.get_payloads_delivered()) == 1

    def test_no_bids_returns_none(self):
        world = MiniWorld()
        client = MevBoostClient({"test-relay": world.relay})
        assert client.get_best_bid(1000, ("test-relay",)) is None
