"""Per-slot context handed to builders, relays and proposers.

Bundles everything one slot of block production needs: canonical execution
context (to fork), fee-market parameters, mempool and private order flow,
searcher bundles routed per builder, the sanctions list, and the slot's
deterministic RNG stream.

The context is also the seam for the slot's shared execution cache
(:class:`~repro.chain.exec_cache.ExecutionCache`), so builders
re-executing the same candidates reuse outcomes.  The world creates one
per slot, and only builders use it: the proposer's own block executes
directly on the engine.  Either way a transaction's outcome is
bit-identical: routing execution through the context never changes a
world.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..chain.execution import ExecutionContext, ExecutionEngine, TxOutcome
from ..chain.transaction import Transaction, TransactionFactory
from ..mempool.pool import SharedMempool
from ..mempool.private import PrivateOrderFlow
from ..mev.bundles import Bundle
from ..perf.metrics import PerfRegistry
from ..sanctions.ofac import SanctionsList
from ..sanctions.screening import tx_statically_involves
from ..types import Address, Hash, Wei

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chain.exec_cache import ExecutionCache


@dataclass
class SlotContext:
    """Everything block production needs for one slot."""

    slot: int
    day: int
    date: datetime.date
    timestamp: int
    block_number: int
    parent_hash: Hash
    base_fee: Wei
    gas_limit: int
    canonical_ctx: ExecutionContext
    engine: ExecutionEngine
    mempool: SharedMempool
    private_flow: PrivateOrderFlow
    # Bundles routed to each builder by the searchers this slot.
    bundles_by_builder: dict[str, list[Bundle]]
    sanctions: SanctionsList
    rng: np.random.Generator
    tx_factory: TransactionFactory
    # Wall-clock moment builders stop pulling from the mempool.
    build_cutoff_time: float = 0.0
    # Shared per-slot memo of builders' execution outcomes (None executes
    # directly).
    exec_cache: "ExecutionCache | None" = None
    perf: PerfRegistry = field(default_factory=PerfRegistry)
    # Per-slot memo of static sanctions screening verdicts.
    _involves_cache: dict = field(default_factory=dict, repr=False)
    # The OFAC set on this slot's date, looked up on first use.
    _sanctioned_cache: frozenset | None = field(default=None, repr=False)

    def bundles_for(self, builder_name: str) -> list[Bundle]:
        return list(self.bundles_by_builder.get(builder_name, []))

    def current_sanctioned_addresses(self) -> frozenset:
        """The publicly known OFAC set on this slot's date (cached)."""
        if self._sanctioned_cache is None:
            self._sanctioned_cache = self.sanctions.addresses_as_of(self.date)
        return self._sanctioned_cache

    def tx_involves(
        self, tx: Transaction, blocked: frozenset, blocked_tokens: frozenset
    ) -> bool:
        """Memoized ``tx_statically_involves`` for this slot.

        The OFAC lookups return one frozenset per date, so ``id()`` is a
        stable cache key here; every censoring builder screening the same
        public flow then shares a single verdict per transaction.
        """
        key = (tx.tx_hash, id(blocked), id(blocked_tokens))
        verdict = self._involves_cache.get(key)
        if verdict is None:
            verdict = tx_statically_involves(tx, blocked, blocked_tokens)
            self._involves_cache[key] = verdict
        return verdict

    # -- shared speculative execution --------------------------------------

    def execute_tx(
        self,
        tx: Transaction,
        fork: ExecutionContext,
        fee_recipient: Address,
    ) -> TxOutcome:
        """Execute through the slot's shared cache when the slot has one.

        Raises exactly what ``engine.execute_transaction`` would raise and
        applies bit-identical effects to ``fork`` either way.
        """
        if self.exec_cache is not None:
            return self.exec_cache.execute(
                self.engine, tx, fork, self.base_fee, fee_recipient
            )
        return self.engine.execute_transaction(tx, fork, self.base_fee, fee_recipient)
