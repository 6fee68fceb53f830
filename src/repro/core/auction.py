"""The per-slot PBS auction.

Orchestrates one slot end to end: builders build and submit to their
relays, relays filter and pick their best bid, the proposer's MEV-Boost
client selects the highest claim across its subscribed relays, and the
signed block (or the local fallback) becomes the slot's outcome.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..beacon.validator import Validator
from ..chain.block import Block
from ..chain.execution import BlockExecutionResult, ExecutionContext
from ..chain.validation import validate_header
from ..errors import MissingPayloadError
from .builder import BlockBuilder, BuilderSubmission
from .context import SlotContext
from .mev_boost import MevBoostClient
from .proposer import LocalBlockBuilder
from .relay import Relay

MODE_PBS = "pbs"
MODE_LOCAL = "local"
MODE_FALLBACK = "pbs-fallback"  # bid taken, block rejected, built locally


@dataclass
class SlotOutcome:
    """Everything that happened in one slot's block production.

    ``block``/``result``/``speculative_ctx`` are None for ePBS slots whose
    execution payload never became canonical (withheld or rejected by the
    payload-timeliness committee).  ``bid_wei`` is the committed phase-1
    bid under ePBS, and ``settled_shortfall_wei`` records any escrow
    settlement enforcing that commitment — settlement lives here, on the
    outcome, never mutated back into the builder's submission object.
    """

    slot: int
    mode: str
    block: Block | None
    result: BlockExecutionResult | None
    proposer: Validator
    winning_submission: BuilderSubmission | None
    delivering_relays: tuple[str, ...]
    speculative_ctx: ExecutionContext | None
    bid_wei: int = 0
    settled_shortfall_wei: int = 0
    payload_withheld: bool = False


class SlotAuction:
    """Runs the PBS auction (and local fallback) for one slot at a time."""

    def __init__(
        self,
        relays: dict[str, Relay],
        builders: dict[str, BlockBuilder],
        local_builder: LocalBlockBuilder,
    ) -> None:
        self.relays = relays
        self.builders = builders
        self.local_builder = local_builder
        self.mev_boost = MevBoostClient(relays)

    def run(self, ctx: SlotContext, proposer: Validator) -> SlotOutcome:
        """Produce this slot's block through PBS or local building."""
        with ctx.perf.timer("builder_phase"):
            self._collect_submissions(ctx, proposer)
        with ctx.perf.timer("proposer_phase"):
            outcome = self._propose(ctx, proposer)
        for relay in self.relays.values():
            relay.drop_slot(ctx.slot)
        return outcome

    # -- builder phase -----------------------------------------------------

    def _collect_submissions(self, ctx: SlotContext, proposer: Validator) -> None:
        # Builds run in active-builder order: they share the slot's RNG
        # stream, so the order fixes every draw.  Each relay keeps its own
        # best accepted bid for the proposer phase.
        for name, relays in ctx.active_builders.items():
            builder = self.builders.get(name)
            if builder is None:
                continue
            submission = builder.build(ctx, proposer)
            if submission is None:
                continue
            for relay_name in relays:
                relay = self.relays.get(relay_name)
                if relay is not None:
                    relay.receive_submission(submission, ctx.day)

    # -- proposer phase ----------------------------------------------------

    def _propose(self, ctx: SlotContext, proposer: Validator) -> SlotOutcome:
        if ctx.proposer_relays:
            selection = self.mev_boost.get_best_bid(ctx.slot, ctx.proposer_relays)
            if selection is not None and (
                selection.claimed_value_wei >= ctx.min_bid_wei
            ):
                # Sign the header: the serving relays reveal and record the
                # delivery.  Only then can the proposer's node validate the
                # payload — exactly the trust structure the paper examines.
                try:
                    submission, delivered = self.mev_boost.accept(
                        ctx.slot, selection
                    )
                except MissingPayloadError:
                    # Every serving relay lost the escrow after the header
                    # was signed; the proposer can only build locally.
                    return self._local_outcome(ctx, proposer, MODE_FALLBACK)
                issues = validate_header(
                    submission.block.header,
                    expected_parent_hash=ctx.parent_hash,
                    expected_number=ctx.block_number,
                    expected_timestamp=ctx.timestamp,
                    expected_base_fee=ctx.base_fee,
                )
                if issues:
                    # Rejected by the execution client after signing; fall
                    # back to local production (the 2022-11-10 dip).
                    return self._local_outcome(ctx, proposer, MODE_FALLBACK)
                return SlotOutcome(
                    slot=ctx.slot,
                    mode=MODE_PBS,
                    block=submission.block,
                    result=submission.result,
                    proposer=proposer,
                    winning_submission=submission,
                    delivering_relays=delivered,
                    speculative_ctx=submission.speculative_ctx,
                )
        return self._local_outcome(ctx, proposer, MODE_LOCAL)

    def _local_outcome(
        self, ctx: SlotContext, proposer: Validator, mode: str
    ) -> SlotOutcome:
        """The proposer's own block, recorded under ``mode``."""
        block, result, fork = self.local_builder.build(ctx, proposer)
        return SlotOutcome(
            slot=ctx.slot,
            mode=mode,
            block=block,
            result=result,
            proposer=proposer,
            winning_submission=None,
            delivering_relays=(),
            speculative_ctx=fork,
        )
