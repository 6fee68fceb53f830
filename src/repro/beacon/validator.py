"""Validators and the validator registry.

Each validator stakes 32 ETH and belongs to an *entity* — a staking pool or
a solo (hobbyist) staker.  Entities determine MEV-Boost usage and relay
subscriptions, which is how the scenario reproduces PBS adoption and the
relay market-share trajectories.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import BeaconError
from ..types import Address, BLSPubkey, derive_address, derive_pubkey


@dataclass
class Validator:
    """One staked validator.

    ``relays`` lists the relay names in this validator's MEV-Boost
    configuration; an empty tuple means the validator builds locally.
    """

    index: int
    pubkey: BLSPubkey
    entity: str
    fee_recipient: Address
    uses_mev_boost: bool = False
    relays: tuple[str, ...] = ()
    # MEV-Boost's min-bid setting: bids below this fall back to local
    # building — the censorship-resistance mitigation proposed after the
    # period the paper studies.
    min_bid_wei: int = 0

    def configure_mev_boost(self, relays: tuple[str, ...]) -> None:
        """Install/replace the MEV-Boost relay list for this validator."""
        self.relays = tuple(relays)
        self.uses_mev_boost = bool(relays)

    def disable_mev_boost(self) -> None:
        self.relays = ()
        self.uses_mev_boost = False


class ValidatorRegistry:
    """The set of active validators, addressable by index."""

    def __init__(self) -> None:
        self._validators: list[Validator] = []

    def __len__(self) -> int:
        return len(self._validators)

    def __iter__(self):
        return iter(self._validators)

    def add(self, entity: str, fee_recipient: Address | None = None) -> Validator:
        """Register one new validator for ``entity``."""
        index = len(self._validators)
        validator = Validator(
            index=index,
            pubkey=derive_pubkey("validator", index),
            entity=entity,
            fee_recipient=fee_recipient
            or derive_address("validator-fee", f"{entity}:{index}"),
        )
        self._validators.append(validator)
        return validator

    def add_many(self, entity: str, count: int) -> list[Validator]:
        """Register ``count`` validators for one entity.

        Pooled entities share a fee recipient (as staking pools do on
        mainnet); solo stakers get per-validator recipients.
        """
        if count < 0:
            raise BeaconError(f"cannot add {count} validators")
        shared = derive_address("entity-fee", entity)
        return [self.add(entity, fee_recipient=shared) for _ in range(count)]

    def by_index(self, index: int) -> Validator:
        if index < 0 or index >= len(self._validators):
            raise BeaconError(f"unknown validator index {index}")
        return self._validators[index]
