"""Relays: escrow between builders and proposers.

A relay accepts builder submissions (subject to its builder-access policy),
validates the claimed bid against the block's actual proposer payment,
applies its announced censorship and MEV filters, serves the best blinded
header to proposers, and reveals the payload after the header is signed.

The paper's headline relay findings are failure modes, so this class also
models them faithfully:

* **stale sanctions lists** — a relay's OFAC copy updates days after OFAC
  publishes (Flashbots' February 2023 update lagged ~3 months), which is
  when non-compliant transactions slip through compliant relays;
* **imperfect MEV filters** — bloXroute (Ethical)'s front-running filter
  misses a fraction of sandwiches (the paper counts 2,002 that got through);
* **validation outages** — Manifold's 2022-10-15 incident, when it stopped
  checking block rewards and a builder submitted inflated claims;
* **trusted internal builders** — relays skipping validation for their own
  builders (how Eden's 278-ETH mispromise reached a proposer).
"""

from __future__ import annotations

import datetime

import numpy as np

from ..chain.transaction import EthTransfer
from ..errors import MissingPayloadError
from ..mev.detection import detect_sandwiches
from ..sanctions.ofac import SanctionsList
from ..sanctions.screening import tx_statically_involves
from ..types import Address, Wei
from .builder import BuilderSubmission
from .policies import MevFilterPolicy, RelayPolicy
from .relay_api import (
    BuilderSubmissionRecord,
    DeliveredPayload,
    RelayDataStore,
    ValidatorRegistration,
)


class Relay:
    """One PBS relay."""

    def __init__(
        self,
        name: str,
        endpoint: str,
        policy: RelayPolicy,
        fork: str = "MEV Boost",
        internal_builders: frozenset[str] = frozenset(),
        sanctions_lag_days: int = 2,
        sanctions_lag_overrides: dict[datetime.date, int] | None = None,
        mev_filter_miss_rate: float = 0.0,
        validates_internal_builders: bool = True,
        validation_miss_rate: float = 0.0,
        rng_seed: int = 0,
    ) -> None:
        self.name = name
        self.endpoint = endpoint
        self.policy = policy
        self.fork = fork
        self.internal_builders = internal_builders
        self.sanctions_lag_days = sanctions_lag_days
        # Per-OFAC-update overrides: listed_date -> lag in days.
        self.sanctions_lag_overrides = dict(sanctions_lag_overrides or {})
        self.mev_filter_miss_rate = mev_filter_miss_rate
        self.validates_internal_builders = validates_internal_builders
        self.validation_miss_rate = validation_miss_rate
        # Scenario hook: days on which the relay skips payment validation
        # entirely (the Manifold incident window).
        self.validation_outage_days: frozenset[int] = frozenset()
        # Scenario hook: slots whose escrowed payload the relay loses after
        # serving the header — deliver_payload raises MissingPayloadError.
        self.drop_payload_slots: frozenset[int] = frozenset()
        # Ground truth for the conformance harness: slots where the
        # front-running filter saw a sandwich but the miss draw let it
        # through.  Escrow is dropped after every slot, so this is the
        # only durable trace of a filter miss on a block that lost the
        # auction elsewhere.
        self.filter_missed_slots: list[int] = []

        self.data = RelayDataStore(name)
        self._rng = np.random.default_rng(rng_seed)
        self._best_by_slot: dict[int, BuilderSubmission] = {}
        self._blocked_addresses: frozenset[Address] = frozenset()
        self._blocked_tokens: frozenset[str] = frozenset()

    # -- daily housekeeping -----------------------------------------------

    def blocked_view_for(
        self, sanctions: SanctionsList, date: datetime.date
    ) -> tuple[frozenset[Address], frozenset[str]]:
        """The (addresses, tokens) this relay's lagged OFAC copy blocks.

        Pure: computes what the filter knows on ``date`` without touching
        relay state, so the conformance oracles can recompute the view a
        delivered block was screened against.
        """
        blocked: set[Address] = set()
        for entry in sanctions.entries():
            lag = self.sanctions_lag_overrides.get(
                entry.listed_date, self.sanctions_lag_days
            )
            active_from = entry.effective_date + datetime.timedelta(days=lag)
            if active_from <= date:
                blocked.add(entry.address)
        tokens: set[str] = set()
        for symbol in sanctions.tokens_as_of(date):
            # Apply the default lag to token designations as well.
            if symbol in sanctions.tokens_as_of(
                date - datetime.timedelta(days=self.sanctions_lag_days)
            ):
                tokens.add(symbol)
        return frozenset(blocked), frozenset(tokens)

    def refresh_sanctions_view(self, sanctions: SanctionsList, date: datetime.date) -> None:
        """Update the relay's local OFAC copy for ``date`` (with lag).

        A batch published on day D becomes active in this relay's filter on
        D + 1 (OFAC effectiveness) + lag (the relay's update latency).
        """
        if not self.policy.is_censoring:
            return
        self._blocked_addresses, self._blocked_tokens = self.blocked_view_for(
            sanctions, date
        )

    # -- validator side ----------------------------------------------------

    def register_validator(self, validator, slot: int) -> None:
        """Subscribe a validator (the ``/validators`` endpoint)."""
        self.data.record_registration(
            ValidatorRegistration(
                relay=self.name,
                validator_pubkey=validator.pubkey,
                fee_recipient=validator.fee_recipient,
                registered_slot=slot,
            )
        )

    # -- builder side ----------------------------------------------------

    def receive_submission(self, submission: BuilderSubmission, day: int) -> bool:
        """Validate and maybe accept one builder submission.

        Returns True when accepted into the slot auction; always records
        the submission attempt in the data store.
        """
        accepted, reason = self._evaluate(submission, day)
        self.data.record_submission(
            BuilderSubmissionRecord(
                relay=self.name,
                slot=submission.slot,
                block_number=submission.block.number,
                block_hash=submission.block.block_hash,
                builder_pubkey=submission.builder_pubkey,
                value_claimed_wei=submission.claimed_for(self.name),
                accepted=accepted,
                rejection_reason=reason,
            )
        )
        if not accepted:
            return False
        best = self._best_by_slot.get(submission.slot)
        if best is None or submission.claimed_for(self.name) > best.claimed_for(
            self.name
        ):
            self._best_by_slot[submission.slot] = submission
        return True

    def _evaluate(self, submission: BuilderSubmission, day: int) -> tuple[bool, str]:
        if not self.policy.admits_builder(
            submission.builder_name, self.internal_builders
        ):
            return False, "builder not admitted"

        if self._should_validate(submission, day):
            actual = self._actual_payment(submission)
            if submission.claimed_for(self.name) > actual:
                return False, "claimed value exceeds actual payment"

        if self.policy.is_censoring and self._contains_blocked(submission):
            return False, "OFAC filter"

        if self.policy.mev_filter is MevFilterPolicy.FRONTRUNNING:
            if self._contains_sandwich(submission):
                if self._rng.random() >= self.mev_filter_miss_rate:
                    return False, "front-running filter"
                self.filter_missed_slots.append(submission.slot)

        return True, ""

    def _should_validate(self, submission: BuilderSubmission, day: int) -> bool:
        if day in self.validation_outage_days:
            return False
        if (
            submission.builder_name in self.internal_builders
            and not self.validates_internal_builders
        ):
            return False
        if self.validation_miss_rate > 0:
            return bool(self._rng.random() >= self.validation_miss_rate)
        return True

    def _actual_payment(self, submission: BuilderSubmission) -> Wei:
        """Recompute the proposer payment from the block itself."""
        if submission.block.fee_recipient == submission.proposer.fee_recipient:
            # Builder set the proposer as fee recipient; the whole block
            # value flows to the proposer directly.
            return submission.result.block_value_wei
        last_tx = submission.block.last_transaction
        if last_tx is None:
            return 0
        payment = 0
        for action in last_tx.actions:
            if (
                isinstance(action, EthTransfer)
                and action.recipient == submission.proposer.fee_recipient
            ):
                payment += action.value_wei
        return payment

    def _contains_blocked(self, submission: BuilderSubmission) -> bool:
        if not self._blocked_addresses and not self._blocked_tokens:
            return False
        return any(
            tx_statically_involves(tx, self._blocked_addresses, self._blocked_tokens)
            for tx in submission.block.transactions
        )

    def _contains_sandwich(self, submission: BuilderSubmission) -> bool:
        labels = detect_sandwiches(submission.block, submission.result.receipts)
        return bool(labels)

    # -- proposer side -----------------------------------------------------

    def best_bid(self, slot: int) -> BuilderSubmission | None:
        """The blinded header + claimed value served to proposers."""
        return self._best_by_slot.get(slot)

    def deliver_payload(self, slot: int, block_hash: str) -> BuilderSubmission:
        """Reveal the full block for a signed header; records the delivery."""
        if slot in self.drop_payload_slots:
            # Fault injection: the relay served the header but lost the
            # escrowed payload before the proposer came back for it.
            self._best_by_slot.pop(slot, None)
            raise MissingPayloadError(
                f"{self.name} dropped payload for slot {slot}"
            )
        submission = self._best_by_slot.get(slot)
        if submission is None or submission.block.block_hash != block_hash:
            raise MissingPayloadError(
                f"{self.name} holds no payload {block_hash} for slot {slot}"
            )
        self.data.record_delivery(
            DeliveredPayload(
                relay=self.name,
                slot=slot,
                block_number=submission.block.number,
                block_hash=block_hash,
                builder_pubkey=submission.builder_pubkey,
                proposer_pubkey=submission.proposer.pubkey,
                proposer_fee_recipient=submission.proposer.fee_recipient,
                value_claimed_wei=submission.claimed_for(self.name),
            )
        )
        return submission

    def drop_slot(self, slot: int) -> None:
        """Release escrowed submissions for a finished slot, if any."""
        self._best_by_slot.pop(slot, None)
