"""The beacon chain: one record per slot, proposed or missed.

Links each slot to the proposer and (when a block landed) the execution
payload's block hash, which is how the dataset collector joins consensus
data with execution data, like the paper's Lighthouse+Erigon pairing.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

from ..errors import BeaconError
from ..types import Hash


@dataclass(frozen=True)
class BeaconBlockRecord:
    """Outcome of one slot on the beacon chain."""

    slot: int
    date: datetime.date
    proposer_index: int
    proposer_entity: str
    # None for missed slots (no block landed this slot).
    execution_block_hash: Hash | None
    # ePBS regime: the winning builder withheld the committed payload, so
    # the slot has a consensus record but no execution block.
    payload_withheld: bool = False

    @property
    def missed(self) -> bool:
        return self.execution_block_hash is None


class BeaconChain:
    """Append-only per-slot history."""

    def __init__(self) -> None:
        self._records: list[BeaconBlockRecord] = []

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self):
        return iter(self._records)

    def append(self, record: BeaconBlockRecord) -> None:
        if self._records and record.slot <= self._records[-1].slot:
            raise BeaconError(
                f"slot {record.slot} is not after {self._records[-1].slot}"
            )
        self._records.append(record)

    def proposed(self) -> list[BeaconBlockRecord]:
        """Records of slots where a block actually landed."""
        return [record for record in self._records if not record.missed]

    def missed_count(self) -> int:
        return sum(1 for record in self._records if record.missed)
