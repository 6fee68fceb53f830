"""The shared logical mempool.

One entry per publicly gossiped pending transaction, annotated with its
origin node and broadcast time; per-node visibility is derived from the
overlay's propagation delays.  Transactions leave the pool when included in
a block or when they expire.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from ..chain.transaction import Transaction
from ..errors import NetworkError
from ..types import Hash
from .network import P2PNetwork

DEFAULT_TTL_SECONDS = 3600.0


@dataclass(frozen=True)
class MempoolEntry:
    """One pending public transaction."""

    tx: Transaction
    origin_node: int
    broadcast_time: float

    def visible_at(self, network: P2PNetwork, node: int) -> float:
        """Wall-clock time this transaction becomes visible at ``node``."""
        return self.broadcast_time + network.propagation_delay(
            self.origin_node, node
        )


class SharedMempool:
    """Pending public transactions with per-node visibility."""

    def __init__(
        self, network: P2PNetwork, ttl_seconds: float = DEFAULT_TTL_SECONDS
    ) -> None:
        if ttl_seconds <= 0:
            raise NetworkError(f"invalid mempool TTL {ttl_seconds}")
        self._network = network
        self._ttl = ttl_seconds
        self._entries: dict[Hash, MempoolEntry] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, tx_hash: Hash) -> bool:
        return tx_hash in self._entries

    def broadcast(
        self, tx: Transaction, origin_node: int, broadcast_time: float
    ) -> MempoolEntry:
        """Add a transaction to the public gossip network."""
        if tx.tx_hash in self._entries:
            raise NetworkError(f"{tx.tx_hash} already in the mempool")
        entry = MempoolEntry(
            tx=tx, origin_node=origin_node, broadcast_time=broadcast_time
        )
        self._entries[tx.tx_hash] = entry
        return entry

    def pending(self) -> Iterator[MempoolEntry]:
        return iter(list(self._entries.values()))

    def visible_to(self, node: int, now: float) -> list[Transaction]:
        """Transactions a node's mempool holds at time ``now``."""
        # Inlined ``entry.visible_at``: this runs for every pending entry,
        # for every builder, every slot.
        delay = self._network.propagation_delay
        return [
            entry.tx
            for entry in self._entries.values()
            if entry.broadcast_time + delay(entry.origin_node, node) <= now
        ]

    def remove_included(self, tx_hashes: Iterable[Hash]) -> int:
        """Drop transactions that made it into a block; returns how many."""
        removed = 0
        for tx_hash in tx_hashes:
            if self._entries.pop(tx_hash, None) is not None:
                removed += 1
        return removed

    def expire(self, now: float) -> int:
        """Drop entries older than the TTL; returns how many were dropped."""
        stale = [
            tx_hash
            for tx_hash, entry in self._entries.items()
            if now - entry.broadcast_time > self._ttl
        ]
        for tx_hash in stale:
            del self._entries[tx_hash]
        return len(stale)
