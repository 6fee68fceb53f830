"""Canonical chain storage.

Holds the ordered sequence of blocks plus, per block, the execution
artefacts (receipts and traces) the measurement pipeline reads — the role
Erigon plays in the paper's data collection.
"""

from __future__ import annotations

import hashlib
from typing import Iterator

from ..constants import INITIAL_BASE_FEE_WEI, MAX_BLOCK_GAS
from ..errors import ChainError
from ..types import Hash, Wei
from .block import Block
from .execution import BlockExecutionResult
from .fee_market import next_base_fee

GENESIS_PARENT_HASH: Hash = "0x" + "0" * 64


class Chain:
    """Append-only canonical chain with per-block execution artefacts."""

    def __init__(self, first_block_number: int = 0) -> None:
        self._first_block_number = first_block_number
        self._blocks: list[Block] = []
        self._results: dict[Hash, BlockExecutionResult] = {}
        self._by_hash: dict[Hash, Block] = {}

    # -- chain growth ----------------------------------------------------

    @property
    def head(self) -> Block | None:
        return self._blocks[-1] if self._blocks else None

    @property
    def next_block_number(self) -> int:
        head = self.head
        return self._first_block_number if head is None else head.number + 1

    @property
    def parent_hash(self) -> Hash:
        head = self.head
        return GENESIS_PARENT_HASH if head is None else head.block_hash

    def next_base_fee(self) -> Wei:
        """Base fee the next block must use, per EIP-1559."""
        head = self.head
        if head is None:
            return INITIAL_BASE_FEE_WEI
        return next_base_fee(
            head.header.base_fee_per_gas,
            head.header.gas_used,
            head.header.gas_limit,
        )

    def append(self, block: Block, result: BlockExecutionResult) -> None:
        """Append a block and its execution result to the canonical chain."""
        if block.number != self.next_block_number:
            raise ChainError(
                f"expected block {self.next_block_number}, got {block.number}"
            )
        if block.header.parent_hash != self.parent_hash:
            raise ChainError(
                f"block {block.number} parent hash mismatch: "
                f"{block.header.parent_hash} != {self.parent_hash}"
            )
        if block.header.gas_used > block.header.gas_limit:
            raise ChainError(f"block {block.number} exceeds its gas limit")
        if block.header.gas_limit > MAX_BLOCK_GAS:
            raise ChainError(f"block {block.number} gas limit above protocol max")
        self._blocks.append(block)
        self._by_hash[block.block_hash] = block
        self._results[block.block_hash] = result

    # -- lookups -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks)

    def block_by_number(self, number: int) -> Block:
        index = number - self._first_block_number
        if index < 0 or index >= len(self._blocks):
            raise ChainError(f"unknown block number {number}")
        return self._blocks[index]

    def block_by_hash(self, block_hash: Hash) -> Block:
        try:
            return self._by_hash[block_hash]
        except KeyError:
            raise ChainError(f"unknown block hash {block_hash}") from None

    def has_block(self, block_hash: Hash) -> bool:
        return block_hash in self._by_hash

    def execution_result(self, block_hash: Hash) -> BlockExecutionResult:
        try:
            return self._results[block_hash]
        except KeyError:
            raise ChainError(f"no execution result for {block_hash}") from None

    # -- integrity ---------------------------------------------------------

    def digest(self) -> str:
        """A stable hex digest over every block and execution artefact.

        Covers block hashes (and hence headers plus transaction ordering)
        as well as receipts, logs, traces and fee accounting, so any
        divergence in execution — not just in block structure — changes
        the digest.  The determinism regression tests compare digests
        across runs and worker counts.
        """
        hasher = hashlib.sha256()
        for block in self._blocks:
            hasher.update(block.block_hash.encode())
            result = self._results[block.block_hash]
            for tx_index, outcome in enumerate(result.outcomes):
                receipt = outcome.receipt
                hasher.update(
                    f"{receipt.tx_hash}|{tx_index}|{receipt.status}|"
                    f"{receipt.gas_used}|{receipt.effective_gas_price}".encode()
                )
                for log in receipt.logs:
                    hasher.update(repr(log).encode())
                for frame in outcome.trace.frames:
                    hasher.update(repr(frame).encode())
                hasher.update(
                    f"{outcome.burned_wei}|{outcome.priority_fee_wei}|"
                    f"{outcome.direct_tip_wei}".encode()
                )
            hasher.update(
                f"{result.gas_used}|{result.burned_wei}|"
                f"{result.priority_fees_wei}|{len(result.dropped)}".encode()
            )
        return hasher.hexdigest()

    # -- aggregate stats used by dataset collection ------------------------

    def total_transactions(self) -> int:
        return sum(len(block.transactions) for block in self._blocks)

    def total_logs(self) -> int:
        return sum(
            len(receipt.logs)
            for result in self._results.values()
            for receipt in result.receipts
        )

    def total_trace_frames(self) -> int:
        return sum(
            len(trace.frames)
            for result in self._results.values()
            for trace in result.traces
        )
