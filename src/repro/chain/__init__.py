"""Execution-layer substrate.

Implements the pieces of the Ethereum execution layer that the paper's
measurement pipeline reads: EIP-1559 transactions and fee market, blocks,
receipts with event logs, internal-call traces, account state, and a
deterministic transaction-execution engine.
"""

from .block import Block, BlockHeader, compute_block_hash, seal_block
from .chain import Chain
from .execution import (
    BlockExecutionResult,
    ExecutionContext,
    ExecutionEngine,
    TxOutcome,
)
from .fee_market import next_base_fee
from .validation import validate_header
from .receipts import (
    LIQUIDATION_EVENT_TOPIC,
    SWAP_EVENT_TOPIC,
    SYNC_EVENT_TOPIC,
    TRANSFER_EVENT_TOPIC,
    Log,
    Receipt,
)
from .state import WorldState
from .traces import CallFrame, TransactionTrace
from .transaction import (
    TransactionFactory,
    EthTransfer,
    LiquidatePosition,
    SwapExact,
    TipCoinbase,
    TokenTransfer,
    Transaction,
)

__all__ = [
    "Block",
    "BlockHeader",
    "compute_block_hash",
    "seal_block",
    "Chain",
    "BlockExecutionResult",
    "ExecutionContext",
    "ExecutionEngine",
    "TxOutcome",
    "next_base_fee",
    "validate_header",
    "Log",
    "Receipt",
    "TRANSFER_EVENT_TOPIC",
    "SWAP_EVENT_TOPIC",
    "SYNC_EVENT_TOPIC",
    "LIQUIDATION_EVENT_TOPIC",
    "WorldState",
    "CallFrame",
    "TransactionTrace",
    "Transaction",
    "EthTransfer",
    "TokenTransfer",
    "SwapExact",
    "LiquidatePosition",
    "TipCoinbase",
    "TransactionFactory",
]
