"""Block builders.

Builders assemble the most profitable block they can from three sources —
searcher bundles, private order flow addressed to them, and the public
mempool as seen from their network vantage point — then decide how much of
the value to pay the proposer (their *bid policy*) and submit to relays.

Bid policies reproduce the strategy families visible in the paper's
Figure 11: flat-margin builders (Flashbots, Eden, blocknative), proportional
high-margin builders (rsync, Builder 1, Manta), and subsidizers
(builder0x69, beaverbuild, eth-builder, the bloXroute builders) that pay
out more than the block is worth on some or all blocks.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..beacon.validator import Validator
from ..chain.block import Block, seal_block
from ..chain.execution import BlockExecutionResult, ExecutionContext
from ..chain.transaction import (
    EthTransfer,
    INTRINSIC_GAS,
    Transaction,
)
from ..errors import ExecutionError, InsufficientBalanceError, PBSError
from ..mev.bundles import Bundle
from ..sanctions.screening import tx_statically_involves
from ..types import Address, BLSPubkey, Wei
from .context import SlotContext

_PAYMENT_GAS = INTRINSIC_GAS


# ---------------------------------------------------------------------------
# Bid policies
# ---------------------------------------------------------------------------


class BidPolicy:
    """Decides the builder -> proposer payment for a block of given value."""

    def payment_for(
        self, block_value_wei: Wei, day: int, rng: np.random.Generator
    ) -> Wei:
        raise NotImplementedError


@dataclass
class FixedMargin(BidPolicy):
    """Pay everything except a small fixed margin (low-variance profit)."""

    margin_wei: Wei

    def payment_for(
        self, block_value_wei: Wei, day: int, rng: np.random.Generator
    ) -> Wei:
        return max(0, block_value_wei - self.margin_wei)


@dataclass
class Proportional(BidPolicy):
    """Keep a fixed share of the block value."""

    proposer_share: float

    def payment_for(
        self, block_value_wei: Wei, day: int, rng: np.random.Generator
    ) -> Wei:
        return max(0, int(block_value_wei * self.proposer_share))


@dataclass
class Subsidizer(BidPolicy):
    """Sometimes pay more than the block is worth to win order flow.

    ``loss_schedule`` lets the scenario push a builder into a sustained
    negative-margin regime for a window of days (e.g. beaverbuild's
    February–March loss the paper documents in Appendix C).
    """

    proposer_share: float = 0.95
    subsidy_probability: float = 0.2
    subsidy_factor: float = 1.1  # payment = value * factor when subsidizing
    loss_schedule: Callable[[int], float] | None = None

    def payment_for(
        self, block_value_wei: Wei, day: int, rng: np.random.Generator
    ) -> Wei:
        probability = self.subsidy_probability
        factor = self.subsidy_factor
        if self.loss_schedule is not None:
            boost = self.loss_schedule(day)
            if boost > 0:
                probability = min(1.0, probability + boost)
                factor = self.subsidy_factor + boost
        if rng.random() < probability:
            return int(block_value_wei * factor)
        return max(0, int(block_value_wei * self.proposer_share))


# ---------------------------------------------------------------------------
# Submissions
# ---------------------------------------------------------------------------


@dataclass
class BuilderSubmission:
    """One candidate block a builder submits to relays."""

    builder_name: str
    builder_pubkey: BLSPubkey
    slot: int
    block: Block
    result: BlockExecutionResult
    proposer: Validator
    payment_wei: Wei  # what the payment transaction actually transfers
    claimed_value_wei: Wei  # what the builder tells relays the bid is worth
    # Speculative context holding this block's state; committed if it wins.
    speculative_ctx: ExecutionContext
    # Relay-specific claim overrides (the Manifold-incident exploit).
    claimed_by_relay: dict[str, Wei] = field(default_factory=dict)

    def claimed_for(self, relay_name: str) -> Wei:
        return self.claimed_by_relay.get(relay_name, self.claimed_value_wei)


def gross_overclaim_boundary(paid_wei: Wei) -> Wei:
    """The largest claim on a ``paid_wei`` payment that is not *gross*.

    A claim above it (1.5x what was paid, and at least 0.01 ETH more) is
    exploit-grade: ePBS slashes the builder and the conformance harness
    flags the relay.  Optimistic bids overshoot by ~0.2%, which must never
    count as gross.
    """
    return max(int(paid_wei * 1.5), paid_wei + 10**16)


# ---------------------------------------------------------------------------
# The builder
# ---------------------------------------------------------------------------


class BlockBuilder:
    """A professional block builder."""

    def __init__(
        self,
        name: str,
        address: Address,
        pubkeys: tuple[BLSPubkey, ...],
        bid_policy: BidPolicy,
        mempool_node: int = 0,
        # How well the builder sees the public mempool before the deadline;
        # professionalized builders squeeze in later transactions.
        mempool_coverage: float = 1.0,
        # Self-censoring builders drop OFAC-listed activity, with a list-
        # refresh lag in days (gaps appear right after OFAC updates).
        self_censors: bool = False,
        sanctions_lag_days: int = 1,
        pays_via_proposer_recipient: bool = False,
    ) -> None:
        if not pubkeys:
            raise PBSError(f"builder {name} needs at least one pubkey")
        if not 0.0 <= mempool_coverage <= 1.0:
            raise PBSError(f"mempool coverage must be in [0, 1] for {name}")
        self.name = name
        self.address = address
        self.pubkeys = pubkeys
        self.bid_policy = bid_policy
        self.mempool_node = mempool_node
        self.mempool_coverage = mempool_coverage
        self.self_censors = self_censors
        self.sanctions_lag_days = sanctions_lag_days
        self.pays_via_proposer_recipient = pays_via_proposer_recipient
        # Partial compliance: a builder that does not announce censorship may
        # still deprioritize OFAC-listed activity most of the time (legal
        # caution) — the queueing effect that concentrates sanctioned
        # transactions into the rare fully-neutral (mostly non-PBS) blocks.
        self.sanctioned_risk_aversion: float = 0.0
        # Optimistic claiming: occasionally the claimed bid slightly exceeds
        # the actual payment (simulation/latency slack).  Whether it reaches
        # a proposer depends on each relay's validation discipline — the
        # mechanism behind Table 4's "share over-promised" column.
        self.overclaim_rate: float = 0.0
        self.overclaim_factor: float = 1.002
        # Fault hooks, seeded by ``simulation.faults.apply_fault``.
        self.timestamp_bug_days: frozenset[int] = frozenset()
        # day -> {relay: claim floor}: that day the builder claims
        # max(50x its payment, floor) to each relay, and submits there
        # even if not routed.
        self.claim_inflation: dict[int, dict[str, Wei]] = {}
        # Days on which the builder is down and submits nothing (the
        # crash-mid-auction fault): build() returns None before touching
        # the slot's shared RNG stream.
        self.crash_days: frozenset[int] = frozenset()
        # ePBS fault hooks, day -> claimed bid.  On a withhold day the
        # builder bids (high, to win) and then never reveals the payload;
        # on a renege day it commits a bid far above what the payload
        # pays.  Both are slots the enshrined protocol settles from
        # collateral and slashes.
        self.withhold_claims: dict[int, Wei] = {}
        self.renege_claims: dict[int, Wei] = {}
        # day -> (claimed, paid): one mispriced block that day.
        self.scripted_mispromise: dict[int, tuple[Wei, Wei]] = {}
        # Set when a scripted mispromise was consumed this slot; the world
        # re-arms it if the bid did not win (the incident did happen).
        self.mispromise_fired: tuple[int, Wei, Wei] | None = None

    def pubkey_for_slot(self, slot: int) -> BLSPubkey:
        return self.pubkeys[slot % len(self.pubkeys)]

    # -- candidate selection ---------------------------------------------

    def _blocked_addresses(self, ctx: SlotContext) -> frozenset[Address]:
        if not self.self_censors:
            return frozenset()
        effective = ctx.date - datetime.timedelta(days=self.sanctions_lag_days)
        return ctx.sanctions.addresses_as_of(effective)

    def _blocked_tokens(self, ctx: SlotContext) -> frozenset[str]:
        if not self.self_censors:
            return frozenset()
        effective = ctx.date - datetime.timedelta(days=self.sanctions_lag_days)
        return ctx.sanctions.tokens_as_of(effective)

    def _gather_candidates(
        self, ctx: SlotContext
    ) -> tuple[list[Bundle], list[Transaction]]:
        """Bundles (deduped by conflict key, best bid first) and loose txs."""
        bundles = sorted(
            ctx.bundles_for(self.name),
            key=lambda bundle: bundle.bid_wei,
            reverse=True,
        )
        deduped: list[Bundle] = []
        seen_keys: set[str] = set()
        for bundle in bundles:
            if bundle.conflict_key in seen_keys:
                continue
            seen_keys.add(bundle.conflict_key)
            deduped.append(bundle)

        public = ctx.mempool.visible_to(self.mempool_node, ctx.build_cutoff_time)
        if self.mempool_coverage < 1.0 and public:
            keep = max(1, int(len(public) * self.mempool_coverage))
            public = public[:keep]
        private = ctx.private_flow.pending_for(self.name, ctx.build_cutoff_time)

        in_bundles = {
            tx_hash for bundle in deduped for tx_hash in bundle.tx_hashes
        }
        loose = [
            tx
            for tx in (*private, *public)
            if tx.tx_hash not in in_bundles
        ]
        loose.sort(
            key=lambda tx: tx.priority_fee_per_gas(ctx.base_fee), reverse=True
        )
        return deduped, loose

    # -- block assembly ----------------------------------------------------

    def build(self, ctx: SlotContext, proposer: Validator) -> BuilderSubmission | None:
        """Assemble, price and sign this slot's candidate block."""
        if ctx.day in self.crash_days:
            return None
        bundles, loose = self._gather_candidates(ctx)
        blocked = self._blocked_addresses(ctx)
        blocked_tokens = self._blocked_tokens(ctx)

        fee_recipient = (
            proposer.fee_recipient
            if self.pays_via_proposer_recipient
            else self.address
        )
        fork = ctx.canonical_ctx.fork()
        gas_budget = ctx.gas_limit - _PAYMENT_GAS
        result = BlockExecutionResult()

        for bundle in bundles:
            if result.gas_used + bundle.gas_limit > gas_budget:
                continue
            self._try_bundle(bundle, fork, ctx, fee_recipient, result)

        # The loose-transaction loop is the hottest code in the simulation
        # (every builder, every slot, hundreds of candidates): keep the
        # running totals in locals and write them back once at the end.
        included_hashes = {tx.tx_hash for tx in result.included}
        included = result.included
        outcomes = result.outcomes
        gas_used = result.gas_used
        burned_wei = result.burned_wei
        priority_fees_wei = result.priority_fees_wei
        direct_transfers_wei = result.direct_transfers_wei
        execute_tx = ctx.execute_tx
        tx_involves = ctx.tx_involves
        rng_random = ctx.rng.random
        # Risk aversion only applies to builders that do not already censor.
        risk_aversion = (
            0.0 if self.self_censors else self.sanctioned_risk_aversion
        )
        for tx in loose:
            tx_hash = tx.tx_hash
            if tx_hash in included_hashes:
                continue
            if gas_used + tx.gas_limit > gas_budget:
                continue
            if blocked and tx_involves(tx, blocked, blocked_tokens):
                continue
            if (
                risk_aversion > 0
                and rng_random() < risk_aversion
                and tx_statically_involves(
                    tx, ctx.current_sanctioned_addresses()
                )
            ):
                continue
            try:
                outcome = execute_tx(tx, fork, fee_recipient)
            except (ExecutionError, InsufficientBalanceError):
                continue
            included.append(tx)
            outcomes.append(outcome)
            gas_used += outcome.receipt.gas_used
            burned_wei += outcome.burned_wei
            priority_fees_wei += outcome.priority_fee_wei
            direct_transfers_wei += outcome.direct_tip_wei
            included_hashes.add(tx_hash)
        result.gas_used = gas_used
        result.burned_wei = burned_wei
        result.priority_fees_wei = priority_fees_wei
        result.direct_transfers_wei = direct_transfers_wei

        if not result.included:
            return None

        block_value = result.block_value_wei
        payment = self.bid_policy.payment_for(block_value, ctx.day, ctx.rng)
        payment, claimed = self._apply_scripted_mispromise(ctx, payment)
        payment_tx = None
        if not self.pays_via_proposer_recipient and payment > 0:
            payment = min(payment, max(0, fork.state.balance_of(self.address)
                                       - _PAYMENT_GAS * ctx.base_fee))
            payment_tx = ctx.tx_factory.create(
                self.address,
                fork.state.nonce_of(self.address),
                [EthTransfer(proposer.fee_recipient, payment)],
                max_fee_per_gas=ctx.base_fee,
                max_priority_fee_per_gas=0,
            )
            try:
                outcome = ctx.engine.execute_transaction(
                    payment_tx, fork, ctx.base_fee, fee_recipient
                )
            except (ExecutionError, InsufficientBalanceError):
                payment_tx = None
                payment = 0
            else:
                result.included.append(payment_tx)
                result.outcomes.append(outcome)
                result.gas_used += outcome.receipt.gas_used
                result.burned_wei += outcome.burned_wei
        elif self.pays_via_proposer_recipient:
            # The proposer's address was the fee recipient all along.
            payment = block_value

        if claimed is None:
            claimed = payment
            if self.overclaim_rate > 0 and ctx.rng.random() < self.overclaim_rate:
                claimed = int(payment * self.overclaim_factor)
        # Bid high enough to win the slot whose payload gets withheld, or
        # commit far above what the payload actually pays.
        claimed = max(
            claimed,
            self.withhold_claims.get(ctx.day, 0),
            self.renege_claims.get(ctx.day, 0),
        )

        timestamp = ctx.timestamp
        if ctx.day in self.timestamp_bug_days:
            # The 2022-11-10 bug: blocks sealed with a stale timestamp.
            # Relays accept them, but proposer nodes reject the revealed
            # payload and fall back to local production.
            timestamp = ctx.timestamp - 768
        block = seal_block(
            number=ctx.block_number,
            slot=ctx.slot,
            timestamp=timestamp,
            parent_hash=ctx.parent_hash,
            fee_recipient=fee_recipient,
            gas_limit=ctx.gas_limit,
            gas_used=result.gas_used,
            base_fee_per_gas=ctx.base_fee,
            transactions=tuple(result.included),
            extra_data=self.name,
        )
        submission = BuilderSubmission(
            builder_name=self.name,
            builder_pubkey=self.pubkey_for_slot(ctx.slot),
            slot=ctx.slot,
            block=block,
            result=result,
            proposer=proposer,
            payment_wei=payment,
            claimed_value_wei=claimed,
            speculative_ctx=fork,
        )
        inflated = self.claim_inflation.get(ctx.day)
        if inflated:
            submission.claimed_by_relay = {
                relay: max(payment * 50, floor)
                for relay, floor in inflated.items()
            }
        return submission

    def _apply_scripted_mispromise(
        self, ctx: SlotContext, payment: Wei
    ) -> tuple[Wei, Wei | None]:
        """Apply a one-shot scripted (claimed, paid) override for this day.

        Only fires when the bid can actually reach this slot's proposer
        (its MEV-Boost queries one of the relays this builder submits to
        this slot), so the single mispriced block reliably lands on chain,
        as it did on mainnet.
        """
        override = self.scripted_mispromise.get(ctx.day)
        if override is None or not ctx.proposer_relays:
            return payment, None
        route = ctx.active_builders.get(self.name, ())
        if route and not set(route) & set(ctx.proposer_relays):
            return payment, None
        claimed, paid = override
        del self.scripted_mispromise[ctx.day]  # fire once
        self.mispromise_fired = (ctx.day, claimed, paid)
        return paid, claimed

    def _try_bundle(
        self,
        bundle: Bundle,
        fork: ExecutionContext,
        ctx: SlotContext,
        fee_recipient: Address,
        result: BlockExecutionResult,
    ) -> bool:
        """Execute a bundle atomically; roll back entirely on any failure."""
        included_hashes = {tx.tx_hash for tx in result.included}
        if any(tx_hash in included_hashes for tx_hash in bundle.tx_hashes):
            return False
        bundle_fork = fork.fork()
        outcomes = []
        for tx in bundle.txs:
            try:
                outcome = ctx.execute_tx(tx, bundle_fork, fee_recipient)
            except (ExecutionError, InsufficientBalanceError):
                return False
            if not outcome.success:
                return False
            outcomes.append(outcome)
        bundle_fork.commit()
        for tx, outcome in zip(bundle.txs, outcomes):
            result.included.append(tx)
            result.outcomes.append(outcome)
            result.gas_used += outcome.receipt.gas_used
            result.burned_wei += outcome.burned_wei
            result.priority_fees_wei += outcome.priority_fee_wei
            result.direct_transfers_wei += outcome.direct_tip_wei
        return True
