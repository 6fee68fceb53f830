"""Private order flow.

Transactions delivered straight to specific builders or validators, never
touching the gossip overlay — searcher bundles, RPC front-running-protection
services, and exchange-to-pool pipelines (e.g. the Binance->AnkrPool flow the
paper uncovers in December 2022).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chain.transaction import Transaction
from ..errors import NetworkError
from ..types import Hash


@dataclass(frozen=True)
class PrivateDelivery:
    """One private transaction and who is allowed to see it."""

    tx: Transaction
    recipients: frozenset[str]
    delivered_time: float


class PrivateOrderFlow:
    """Pending private transactions, addressable per recipient channel."""

    def __init__(self) -> None:
        self._deliveries: dict[Hash, PrivateDelivery] = {}

    def __len__(self) -> int:
        return len(self._deliveries)

    def __contains__(self, tx_hash: Hash) -> bool:
        return tx_hash in self._deliveries

    def deliver(
        self,
        tx: Transaction,
        recipients: list[str] | tuple[str, ...] | frozenset[str],
        delivered_time: float,
    ) -> PrivateDelivery:
        """Hand a transaction privately to one or more named recipients.

        Recipients are channel names: builder names or validator entities.
        """
        if not recipients:
            raise NetworkError("private delivery needs at least one recipient")
        if tx.tx_hash in self._deliveries:
            raise NetworkError(f"{tx.tx_hash} already delivered privately")
        delivery = PrivateDelivery(
            tx=tx,
            recipients=frozenset(recipients),
            delivered_time=delivered_time,
        )
        self._deliveries[tx.tx_hash] = delivery
        return delivery

    def pending_for(self, recipient: str, now: float) -> list[Transaction]:
        """Private transactions visible to ``recipient`` at time ``now``."""
        return [
            delivery.tx
            for delivery in self._deliveries.values()
            if recipient in delivery.recipients and delivery.delivered_time <= now
        ]

    def remove_included(self, tx_hashes: list[Hash] | tuple[Hash, ...]) -> int:
        removed = 0
        for tx_hash in tx_hashes:
            if self._deliveries.pop(tx_hash, None) is not None:
                removed += 1
        return removed
