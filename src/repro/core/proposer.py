"""Local block production — the non-PBS path.

A validator that did not opt into MEV-Boost (or whose chosen PBS block was
rejected by its node, as in the 2022-11-10 incident) builds its own block:
public-mempool transactions ordered by priority fee, plus any private flow
addressed to its own entity (how exchange-to-pool pipelines like the
December 2022 Binance->AnkrPool flow reach non-PBS blocks) — but no
searcher bundles and no builder-grade order flow.  This is the "hobbyist"
block building the paper compares PBS against.
"""

from __future__ import annotations

from ..beacon.validator import Validator
from ..chain.block import Block, seal_block
from ..chain.execution import BlockExecutionResult, ExecutionContext
from .context import SlotContext

# Local proposers snapshot their mempool earlier than professional builders
# race it: they miss the tail of freshly gossiped transactions.
SNAPSHOT_LEAD_SECONDS = 60.0


class LocalBlockBuilder:
    """Greedy priority-fee block building from the public mempool."""

    def __init__(
        self,
        mempool_node: int = 0,
        snapshot_lead_seconds: float = SNAPSHOT_LEAD_SECONDS,
    ) -> None:
        self.mempool_node = mempool_node
        self.snapshot_lead_seconds = snapshot_lead_seconds

    def build(
        self, ctx: SlotContext, proposer: Validator
    ) -> tuple[Block, BlockExecutionResult, ExecutionContext]:
        """Build the proposer's own block on a speculative context."""
        cutoff = ctx.build_cutoff_time - self.snapshot_lead_seconds
        candidates = ctx.mempool.visible_to(self.mempool_node, cutoff)
        candidates.extend(
            ctx.private_flow.pending_for(proposer.entity, ctx.build_cutoff_time)
        )
        candidates.sort(
            key=lambda tx: tx.priority_fee_per_gas(ctx.base_fee), reverse=True
        )
        fork = ctx.canonical_ctx.fork()
        result = ctx.engine.execute_block(
            candidates,
            fork,
            ctx.base_fee,
            proposer.fee_recipient,
            ctx.gas_limit,
        )
        block = seal_block(
            number=ctx.block_number,
            slot=ctx.slot,
            timestamp=ctx.timestamp,
            parent_hash=ctx.parent_hash,
            fee_recipient=proposer.fee_recipient,
            gas_limit=ctx.gas_limit,
            gas_used=result.gas_used,
            base_fee_per_gas=ctx.base_fee,
            transactions=tuple(result.included),
            extra_data="",
        )
        return block, result, fork
