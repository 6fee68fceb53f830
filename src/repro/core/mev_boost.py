"""The MEV-Boost client running next to a validator.

Queries the validator's configured relays for their best blinded header,
picks the highest claimed value, and — once the proposer signs — collects
the full payload from every relay escrowing that block (the same block
submitted to several relays is delivered, and counted, by all of them;
the paper measures ~5% of PBS blocks proposed via more than one relay).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import MissingPayloadError
from ..types import Hash, Wei
from .builder import BuilderSubmission
from .relay import Relay


@dataclass(frozen=True)
class BidSelection:
    """The winning blinded bid and every relay able to serve it."""

    block_hash: Hash
    claimed_value_wei: Wei
    relays: tuple[str, ...]


class MevBoostClient:
    """Relay multiplexer used by validators that opted into PBS."""

    def __init__(self, relays: dict[str, Relay]) -> None:
        self._relays = relays

    def get_best_bid(
        self, slot: int, relay_names: tuple[str, ...]
    ) -> BidSelection | None:
        """Best header across the validator's subscribed relays."""
        best: BuilderSubmission | None = None
        best_relay: str | None = None
        for name in relay_names:
            relay = self._relays.get(name)
            if relay is None:
                continue
            bid = relay.best_bid(slot)
            if bid is None:
                continue
            if best is None or bid.claimed_for(name) > best.claimed_for(best_relay):
                best = bid
                best_relay = name
        if best is None or best_relay is None:
            return None
        serving = tuple(
            name
            for name in relay_names
            if name in self._relays
            and (candidate := self._relays[name].best_bid(slot)) is not None
            and candidate.block.block_hash == best.block.block_hash
        )
        return BidSelection(
            block_hash=best.block.block_hash,
            claimed_value_wei=best.claimed_for(best_relay),
            relays=serving,
        )

    def accept(
        self, slot: int, selection: BidSelection
    ) -> tuple[BuilderSubmission, tuple[str, ...]]:
        """Sign the header: every serving relay reveals and records delivery.

        A relay that lost its escrow is skipped — any other relay holding
        the same block can still serve it.  Returns the payload and the
        relays that actually delivered; raises :class:`MissingPayloadError`
        when none could (the proposer's slot is then at the mercy of its
        local fallback — exactly the availability risk the paper flags).
        """
        submission: BuilderSubmission | None = None
        delivered: list[str] = []
        for name in selection.relays:
            try:
                submission = self._relays[name].deliver_payload(
                    slot, selection.block_hash
                )
            except MissingPayloadError:
                continue
            delivered.append(name)
        if submission is None:
            raise MissingPayloadError(
                f"no relay delivered payload for slot {slot}"
            )
        return submission, tuple(delivered)
