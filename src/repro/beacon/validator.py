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

    Its MEV-Boost relay menu is slot data, not validator state: the world
    looks it up for each proposed slot and hands it to the auction in the
    slot's :class:`~repro.core.context.SlotContext`.
    """

    index: int
    pubkey: BLSPubkey
    entity: str
    fee_recipient: Address


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
