"""Mempool-Guru-style observation.

A fixed set of monitor nodes watches every publicly gossiped
transaction; the store keeps the earliest time any monitor saw it.  The
measurement pipeline classifies a mined transaction as *private* exactly
when no monitor ever saw it before inclusion — the paper's methodology.
"""

from __future__ import annotations

from ..errors import NetworkError
from ..types import Hash
from .network import P2PNetwork
from .pool import MempoolEntry

DEFAULT_OBSERVER_COUNT = 7  # Mempool Guru ran seven full nodes


class ObservationStore:
    """Earliest sighting per transaction across the monitor nodes."""

    def __init__(self, network: P2PNetwork, observer_nodes: list[int]) -> None:
        if not observer_nodes:
            raise NetworkError("need at least one observer node")
        unknown = set(observer_nodes) - set(network.nodes())
        if unknown:
            raise NetworkError(f"observer nodes not in overlay: {sorted(unknown)}")
        self._network = network
        self._observers = tuple(observer_nodes)
        # tx_hash -> earliest time any monitor saw it.  Readers want only
        # that minimum, or the count of (tx, monitor) records, which is
        # this dict's size times the number of monitors.
        self._first_seen: dict[Hash, float] = {}

    @classmethod
    def with_default_observers(cls, network: P2PNetwork) -> "ObservationStore":
        """Place the standard seven monitors spread across the overlay."""
        nodes = network.nodes()
        count = min(DEFAULT_OBSERVER_COUNT, len(nodes))
        stride = max(1, len(nodes) // count)
        return cls(network, nodes[::stride][:count])

    def record_broadcast(self, entry: MempoolEntry) -> None:
        """Record when the first monitor sees a public transaction."""
        self._first_seen[entry.tx.tx_hash] = min(
            entry.visible_at(self._network, node) for node in self._observers
        )

    def first_seen(self, tx_hash: Hash) -> float | None:
        """Earliest time any monitor saw the transaction; None if never."""
        return self._first_seen.get(tx_hash)

    def is_public(self, tx_hash: Hash, before: float | None = None) -> bool:
        """Whether the transaction was publicly observable (optionally by a time)."""
        seen = self.first_seen(tx_hash)
        if seen is None:
            return False
        return True if before is None else seen <= before

    def total_arrival_records(self) -> int:
        """Number of (tx, monitor) arrival timestamps — the Table 1 count."""
        return len(self._first_seen) * len(self._observers)
