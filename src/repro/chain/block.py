"""Execution-layer blocks and headers."""

from __future__ import annotations

from dataclasses import dataclass

from ..types import Address, Gas, Hash, Wei, derive_hash
from .transaction import Transaction


def compute_block_hash(
    number: int,
    parent_hash: Hash,
    fee_recipient: Address,
    tx_hashes: tuple[Hash, ...],
    extra_data: str,
) -> Hash:
    """Deterministic block hash over the header-identifying contents."""
    payload = "|".join((str(number), parent_hash, fee_recipient, extra_data, *tx_hashes))
    return derive_hash("block", payload)


@dataclass(frozen=True)
class BlockHeader:
    """Execution-layer block header.

    ``fee_recipient`` is the address receiving priority fees — the builder's
    address for PBS blocks, the proposer's for locally built blocks.  This is
    the field the paper's builder-clustering keys off.
    """

    number: int
    slot: int
    timestamp: int
    parent_hash: Hash
    fee_recipient: Address
    gas_limit: Gas
    gas_used: Gas
    base_fee_per_gas: Wei
    block_hash: Hash
    extra_data: str = ""


@dataclass(frozen=True)
class Block:
    """A full execution-layer block (header plus ordered transactions)."""

    header: BlockHeader
    transactions: tuple[Transaction, ...]

    @property
    def number(self) -> int:
        return self.header.number

    @property
    def block_hash(self) -> Hash:
        return self.header.block_hash

    @property
    def fee_recipient(self) -> Address:
        return self.header.fee_recipient

    @property
    def last_transaction(self) -> Transaction | None:
        """The final transaction — where PBS builders pay the proposer."""
        return self.transactions[-1] if self.transactions else None


def seal_block(
    number: int,
    slot: int,
    timestamp: int,
    parent_hash: Hash,
    fee_recipient: Address,
    gas_limit: Gas,
    gas_used: Gas,
    base_fee_per_gas: Wei,
    transactions: tuple[Transaction, ...],
    extra_data: str = "",
) -> Block:
    """Assemble a block and compute its hash in one step."""
    block_hash = compute_block_hash(
        number,
        parent_hash,
        fee_recipient,
        tuple(tx.tx_hash for tx in transactions),
        extra_data,
    )
    header = BlockHeader(
        number=number,
        slot=slot,
        timestamp=timestamp,
        parent_hash=parent_hash,
        fee_recipient=fee_recipient,
        gas_limit=gas_limit,
        gas_used=gas_used,
        base_fee_per_gas=base_fee_per_gas,
        block_hash=block_hash,
        extra_data=extra_data,
    )
    return Block(header=header, transactions=transactions)
