"""Enshrined PBS (EIP-7732): the two-phase slot with staked builders.

The paper closes on the Ethereum roadmap's plan to integrate PBS natively
and stresses that the proposal "is restricted to ensuring that the value
is delivered but does not address the other aspects" (censorship and MEV
filtering promises).  This module makes that claim measurable by running
the real enshrined design, not a thin escrow counterfactual:

* **Staked builders.**  Only builders activated through the
  :class:`~repro.beacon.builders.BuilderRegistry` (deposit with the
  ``0x03`` withdrawal prefix → churn-limited activation queue) may bid.
* **Phase 1 — bid commit.**  Each builder signs an execution-payload bid
  (header + value); the proposer commits to the highest bid.  The
  commitment is binding: the bid value is owed whether or not the
  builder follows through.
* **Phase 2 — payload reveal.**  The committed builder reveals the full
  payload.  A builder that *withholds* it forfeits the bid from escrow
  and is slashed; honest observation of the withholding is broadcast as
  a payload-withheld message (the beacon record carries it).
* **Payload-timeliness committee (PTC).**  ``PTC_SIZE`` votes attest
  whether the reveal was timely.  Only a quorum of timeliness votes
  makes the execution payload canonical; an equivocating committee can
  leave the slot *empty* (consensus block, no execution payload) even
  though the builder revealed honestly.  In-model reveals are always
  timely, so the vote depends only on how many seats equivocate, and no
  seats are sampled.
* **Commitment enforcement.**  If the revealed payload's embedded
  payment falls short of the committed bid, the difference is settled
  from the builder's escrowed collateral — recorded on the
  :class:`~repro.core.auction.SlotOutcome`, never written back into the
  builder's submission.  *Gross* reneging (claiming far above what the
  payload pays) is additionally slashed, ejecting the builder.

Builder-side behaviour (self-censoring, sanctioned inclusion) is
untouched, so censorship outcomes persist across regimes — exactly the
comparison ``analysis/regimes.py`` draws.
"""

from __future__ import annotations

from ..beacon.builders import (
    SLASH_REASON_RENEGING,
    SLASH_REASON_WITHHELD,
    BuilderRegistry,
    EpbsLedger,
    EpbsSlotRecord,
)
from ..beacon.validator import Validator
from ..chain.validation import validate_header
from ..types import Wei
from .auction import MODE_FALLBACK, MODE_LOCAL, SlotAuction, SlotOutcome
from .builder import BlockBuilder, BuilderSubmission, gross_overclaim_boundary
from .context import SlotContext
from .proposer import LocalBlockBuilder

MODE_EPBS = "epbs"
#: The committed builder withheld the payload: bid forfeited, slot empty.
MODE_EPBS_WITHHELD = "epbs-withheld"
#: The PTC failed to reach a timeliness quorum: payload revealed but not
#: canonical; the proposer still receives the committed bid.
MODE_EPBS_EMPTY = "epbs-empty"

#: Payload-timeliness committee size (seats per slot).
PTC_SIZE = 8


class EnshrinedPBSAuction(SlotAuction):
    """The EIP-7732 two-phase slot, run by the protocol without relays.

    ``registry`` admits the staked builders and holds their collateral:
    every settlement is charged to it, and withholding or gross reneging
    is slashed.  ``ledger`` records each slot's bid, reveal and PTC vote.
    """

    def __init__(
        self,
        builders: dict[str, BlockBuilder],
        local_builder: LocalBlockBuilder,
        *,
        registry: BuilderRegistry,
        ledger: EpbsLedger,
    ) -> None:
        super().__init__(relays={}, builders=builders, local_builder=local_builder)
        self.registry = registry
        self.ledger = ledger
        # Fault-injection hook, day -> share of the PTC that emits
        # conflicting timeliness votes that day (both discarded).
        self.ptc_equivocation: dict[int, float] = {}

    @property
    def ptc_quorum(self) -> int:
        """Votes required for the payload to become canonical (majority)."""
        return PTC_SIZE // 2 + 1

    def run(self, ctx: SlotContext, proposer: Validator) -> SlotOutcome:
        """Produce this slot's block through the enshrined two-phase slot.

        Every proposer participates (the scheme is enshrined, not opt-in);
        local building remains only as the no-bids fallback.  The staked
        builders' builds are timed as ``builder_phase``; bid selection,
        reveal, the PTC vote and settlement as ``proposer_phase``.
        """
        with ctx.perf.timer("builder_phase"):
            ordered = [
                builder
                for builder in (self.builders.get(name) for name in ctx.active_builders)
                if builder is not None
                and self.registry.is_active(builder.name, ctx.day)
            ]
            submissions: list[BuilderSubmission] = []
            for builder in ordered:
                submission = builder.build(ctx, proposer)
                if submission is not None:
                    submissions.append(submission)
        with ctx.perf.timer("proposer_phase"):
            return self._commit_and_reveal(ctx, proposer, submissions)

    def _commit_and_reveal(
        self,
        ctx: SlotContext,
        proposer: Validator,
        submissions: list[BuilderSubmission],
    ) -> SlotOutcome:
        """Bid selection, payload reveal, the PTC vote and settlement."""
        # Phase 1: the proposer commits to the highest signed bid.
        best = self._select(submissions)
        if best is None:
            return self._local_outcome(ctx, proposer, MODE_LOCAL)
        bid_wei = best.claimed_value_wei
        builder = self.builders[best.builder_name]

        # Phase 2: payload reveal.
        if ctx.day in builder.withhold_claims:
            return self._withheld_outcome(ctx, proposer, best, bid_wei)

        issues = validate_header(
            best.block.header,
            expected_parent_hash=ctx.parent_hash,
            expected_number=ctx.block_number,
            expected_timestamp=ctx.timestamp,
            expected_base_fee=ctx.base_fee,
        )
        if issues:
            # Protocol-level validation: invalid payloads never win, the
            # slot falls back to a local block.
            return self._local_outcome(ctx, proposer, MODE_FALLBACK)

        # The PTC attests reveal timeliness; without a quorum the payload
        # does not become canonical.
        votes_for, equivocations = self._ptc_vote(ctx)
        if votes_for < self.ptc_quorum:
            return self._empty_outcome(
                ctx, proposer, best, bid_wei, votes_for, equivocations
            )

        settled = self._enforce_commitment(best, ctx)
        self._record_slot(
            ctx,
            best,
            bid_wei=bid_wei,
            payment_wei=best.payment_wei,
            settled_wei=settled,
            revealed=True,
            payload_full=True,
            votes_for=votes_for,
            equivocations=equivocations,
        )
        return SlotOutcome(
            slot=ctx.slot,
            mode=MODE_EPBS,
            block=best.block,
            result=best.result,
            proposer=proposer,
            winning_submission=best,
            delivering_relays=(),
            speculative_ctx=best.speculative_ctx,
            bid_wei=bid_wei,
            settled_shortfall_wei=settled,
        )

    # -- outcome branches --------------------------------------------------

    def _withheld_outcome(
        self,
        ctx: SlotContext,
        proposer: Validator,
        best: BuilderSubmission,
        bid_wei: Wei,
    ) -> SlotOutcome:
        """The committed builder withheld the payload after winning.

        The honest payload-withheld message reaches consensus (the beacon
        record carries the flag); the bid is forfeited from escrow to the
        proposer and the builder is slashed and ejected.  The builder's
        speculative fork is discarded — no execution block this slot.
        """
        state = ctx.canonical_ctx.state
        settled = self.registry.charge(
            best.builder_name, proposer.fee_recipient, bid_wei, state=state
        )
        self.registry.slash(
            best.builder_name,
            bid_wei,
            ctx.day,
            SLASH_REASON_WITHHELD,
            state=state,
        )
        self._record_slot(
            ctx,
            best,
            bid_wei=bid_wei,
            payment_wei=0,
            settled_wei=settled,
            revealed=False,
            payload_full=False,
            votes_for=0,
            equivocations=0,
        )
        return SlotOutcome(
            slot=ctx.slot,
            mode=MODE_EPBS_WITHHELD,
            block=None,
            result=None,
            proposer=proposer,
            winning_submission=best,
            delivering_relays=(),
            speculative_ctx=None,
            bid_wei=bid_wei,
            settled_shortfall_wei=settled,
            payload_withheld=True,
        )

    def _empty_outcome(
        self,
        ctx: SlotContext,
        proposer: Validator,
        best: BuilderSubmission,
        bid_wei: Wei,
        votes_for: int,
        equivocations: int,
    ) -> SlotOutcome:
        """The PTC failed to attest timeliness: consensus block, no payload.

        The bid is unconditional — the proposer is paid from escrow even
        though the payload never became canonical — but the builder is
        not at fault and is not slashed.
        """
        state = ctx.canonical_ctx.state
        settled = self.registry.charge(
            best.builder_name, proposer.fee_recipient, bid_wei, state=state
        )
        self._record_slot(
            ctx,
            best,
            bid_wei=bid_wei,
            payment_wei=0,
            settled_wei=settled,
            revealed=True,
            payload_full=False,
            votes_for=votes_for,
            equivocations=equivocations,
        )
        return SlotOutcome(
            slot=ctx.slot,
            mode=MODE_EPBS_EMPTY,
            block=None,
            result=None,
            proposer=proposer,
            winning_submission=best,
            delivering_relays=(),
            speculative_ctx=None,
            bid_wei=bid_wei,
            settled_shortfall_wei=settled,
        )

    # -- committee ---------------------------------------------------------

    def _ptc_vote(self, ctx: SlotContext) -> tuple[int, int]:
        """(timeliness votes, equivocating seats) for this slot's reveal.

        In-model reveals are always timely, so honest seats vote for the
        payload; an equivocating seat emits conflicting votes and both
        are discarded.
        """
        rate = self.ptc_equivocation.get(ctx.day, 0.0)
        equivocations = min(PTC_SIZE, int(round(rate * PTC_SIZE)))
        return PTC_SIZE - equivocations, equivocations

    # -- selection and settlement ------------------------------------------

    @staticmethod
    def _select(
        submissions: list[BuilderSubmission],
    ) -> BuilderSubmission | None:
        """The protocol picks the highest committed bid, deterministically."""
        if not submissions:
            return None
        return max(
            submissions,
            key=lambda s: (s.claimed_value_wei, s.block.block_hash),
        )

    def _enforce_commitment(
        self, submission: BuilderSubmission, ctx: SlotContext
    ) -> Wei:
        """Settle any bid shortfall from the builder's escrowed collateral.

        With the commitment enforced in-protocol, the proposer receives
        exactly the committed value — the property that removes Table 4's
        delivered-vs-promised gap.  Returns the settled amount (recorded
        on the outcome; the submission object is never mutated).  Gross
        reneging — a bid far above what the payload actually pays — is
        additionally slashed.
        """
        shortfall = submission.claimed_value_wei - submission.payment_wei
        if shortfall <= 0:
            return 0
        state = submission.speculative_ctx.state
        recipient = submission.proposer.fee_recipient
        settled = self.registry.charge(
            submission.builder_name, recipient, shortfall, state=state
        )
        if submission.claimed_value_wei > gross_overclaim_boundary(
            submission.payment_wei
        ):
            self.registry.slash(
                submission.builder_name,
                shortfall,
                ctx.day,
                SLASH_REASON_RENEGING,
                state=state,
            )
        return settled

    def _record_slot(
        self,
        ctx: SlotContext,
        best: BuilderSubmission,
        *,
        bid_wei: Wei,
        payment_wei: Wei,
        settled_wei: Wei,
        revealed: bool,
        payload_full: bool,
        votes_for: int,
        equivocations: int,
    ) -> None:
        self.ledger.record_slot(
            EpbsSlotRecord(
                slot=ctx.slot,
                day=ctx.day,
                builder=best.builder_name,
                bid_wei=bid_wei,
                payment_wei=payment_wei,
                settled_wei=settled_wei,
                revealed=revealed,
                payload_full=payload_full,
                ptc_votes_for=votes_for,
                ptc_equivocations=equivocations,
            )
        )
