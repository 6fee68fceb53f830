"""Searcher bundles.

A bundle is an ordered group of transactions a searcher wants included
atomically and in order — its own transactions plus, for sandwiches, the
victim transaction lifted from the public mempool.  Searchers bid for
inclusion via coinbase tips inside their transactions; builders treat the
bundle as an indivisible unit when packing blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chain.transaction import Transaction
from ..errors import PBSError
from ..types import Hash, Wei

KIND_SANDWICH = "sandwich"
KIND_ARBITRAGE = "arbitrage"
KIND_LIQUIDATION = "liquidation"
KIND_BENIGN = "benign"
_VALID_KINDS = frozenset(
    {KIND_SANDWICH, KIND_ARBITRAGE, KIND_LIQUIDATION, KIND_BENIGN}
)


@dataclass(frozen=True)
class Bundle:
    """An atomic, ordered transaction group bidding for block inclusion."""

    searcher: str
    txs: tuple[Transaction, ...]
    kind: str
    expected_profit_wei: Wei
    bid_wei: Wei
    # Bundles sharing a conflict key target the same opportunity (same
    # victim, same liquidatable position, same pool cycle); a builder
    # includes at most one per key.
    conflict_key: str = ""

    def __post_init__(self) -> None:
        if self.kind not in _VALID_KINDS:
            raise PBSError(f"unknown bundle kind {self.kind!r}")
        if not self.txs:
            raise PBSError(
                f"{self.kind} bundle from {self.searcher} has no transactions"
            )
        if self.bid_wei < 0:
            raise PBSError(
                f"{self.kind} bundle from {self.searcher} has a negative bid"
            )

    @property
    def tx_hashes(self) -> tuple[Hash, ...]:
        return tuple(tx.tx_hash for tx in self.txs)

    @property
    def gas_limit(self) -> int:
        return sum(tx.gas_limit for tx in self.txs)


def make_bundle(
    searcher: str,
    txs: list[Transaction] | tuple[Transaction, ...],
    kind: str,
    expected_profit_wei: Wei,
    bid_wei: Wei,
    conflict_key: str = "",
) -> Bundle:
    """Create a bundle, keyed by searcher and first transaction by default."""
    if not txs:
        raise PBSError("a bundle needs at least one transaction")
    return Bundle(
        searcher=searcher,
        txs=tuple(txs),
        kind=kind,
        expected_profit_wei=expected_profit_wei,
        bid_wei=bid_wei,
        conflict_key=conflict_key or f"bundle-{searcher}-{txs[0].tx_hash}",
    )
