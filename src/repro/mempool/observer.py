"""Mempool-Guru-style observation.

A fixed set of monitor nodes records, for every publicly gossiped
transaction, the timestamp at which each monitor first saw it.  The
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
    """First-seen timestamps per (transaction, monitor node)."""

    def __init__(self, network: P2PNetwork, observer_nodes: list[int]) -> None:
        if not observer_nodes:
            raise NetworkError("need at least one observer node")
        unknown = set(observer_nodes) - set(network.nodes())
        if unknown:
            raise NetworkError(f"observer nodes not in overlay: {sorted(unknown)}")
        self._network = network
        self._observers = tuple(observer_nodes)
        # tx_hash -> tuple of first-seen timestamps, aligned with observers.
        self._first_seen: dict[Hash, tuple[float, ...]] = {}

    @classmethod
    def with_default_observers(cls, network: P2PNetwork) -> "ObservationStore":
        """Place the standard seven monitors spread across the overlay."""
        nodes = network.nodes()
        count = min(DEFAULT_OBSERVER_COUNT, len(nodes))
        stride = max(1, len(nodes) // count)
        return cls(network, nodes[::stride][:count])

    def record_broadcast(self, entry: MempoolEntry) -> None:
        """Record the arrival times of a public transaction at every monitor."""
        self._first_seen[entry.tx.tx_hash] = tuple(
            entry.visible_at(self._network, node) for node in self._observers
        )

    def first_seen(self, tx_hash: Hash) -> float | None:
        """Earliest time any monitor saw the transaction; None if never."""
        timestamps = self._first_seen.get(tx_hash)
        return min(timestamps) if timestamps else None

    def is_public(self, tx_hash: Hash, before: float | None = None) -> bool:
        """Whether the transaction was publicly observable (optionally by a time)."""
        seen = self.first_seen(tx_hash)
        if seen is None:
            return False
        return True if before is None else seen <= before

    def total_arrival_records(self) -> int:
        """Number of (tx, monitor) arrival timestamps — the Table 1 count."""
        return sum(len(times) for times in self._first_seen.values())
