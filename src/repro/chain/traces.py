"""Internal-call traces.

The paper traces every transaction to find internal ETH transfers — the
only way to see "direct transfers" (searcher tips to the fee recipient) and
ETH moved to/from sanctioned addresses inside contract calls.  Our engine
records an equivalent frame for every value movement a transaction causes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..types import Address, Hash, Wei

# Frame kinds.
FRAME_TOP_LEVEL = "call"  # the transaction's own top-level value transfer
FRAME_INTERNAL = "internal"  # value moved by contract execution
FRAME_COINBASE_TIP = "coinbase-tip"  # internal transfer to the fee recipient


@dataclass(frozen=True, slots=True)
class CallFrame:
    """One value-moving frame inside a transaction trace."""

    depth: int
    sender: Address
    recipient: Address
    value_wei: Wei
    kind: str = FRAME_INTERNAL


@dataclass(frozen=True, slots=True)
class TransactionTrace:
    """All value-moving frames of one executed transaction, in order."""

    tx_hash: Hash
    frames: tuple[CallFrame, ...]

    def iter_value_transfers(self) -> Iterator[CallFrame]:
        """Frames that actually moved a nonzero amount of ETH."""
        return (frame for frame in self.frames if frame.value_wei > 0)
