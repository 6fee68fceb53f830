"""Slot/epoch arithmetic and seeded proposer election.

Proposers are elected uniformly at random among active validators, one per
slot, with the whole epoch's assignment computable at least one epoch ahead
of time — the lookahead property the paper's background section describes.
"""

from __future__ import annotations

import hashlib

from ..constants import SLOTS_PER_EPOCH
from ..errors import BeaconError
from .validator import Validator, ValidatorRegistry


def epoch_of_slot(slot: int) -> int:
    """Epoch number containing ``slot``."""
    if slot < 0:
        raise BeaconError(f"negative slot {slot}")
    return slot // SLOTS_PER_EPOCH


class ProposerSchedule:
    """Deterministic random proposer assignment with epoch lookahead.

    Assignment for a slot depends only on (seed, epoch, slot, validator-set
    size), so it can be computed an epoch ahead — committees and proposers
    are "announced" before the epoch starts, exactly as on mainnet.
    """

    def __init__(self, registry: ValidatorRegistry, seed: int) -> None:
        self._registry = registry
        self._seed = seed

    def proposer_for_slot(self, slot: int) -> Validator:
        """The validator elected to propose in ``slot``."""
        count = len(self._registry)
        if count == 0:
            raise BeaconError("no validators registered")
        epoch = epoch_of_slot(slot)
        payload = f"{self._seed}:{epoch}:{slot}:{count}".encode("utf-8")
        draw = int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")
        return self._registry.by_index(draw % count)
