"""Unit tests for blocks and block hashing."""

from repro.chain.block import compute_block_hash, seal_block
from repro.chain.transaction import EthTransfer, TransactionFactory
from repro.types import derive_address, derive_hash, gwei

FEE_RECIPIENT = derive_address("blk", "builder")
PARENT = derive_hash("blk", "parent")


def _sealed(txs=(), extra="tag", number=1):
    return seal_block(
        number=number,
        slot=100,
        timestamp=1_700_000_000,
        parent_hash=PARENT,
        fee_recipient=FEE_RECIPIENT,
        gas_limit=30_000_000,
        gas_used=sum(tx.gas_limit for tx in txs),
        base_fee_per_gas=gwei(10),
        transactions=tuple(txs),
        extra_data=extra,
    )


def _tx(factory, nonce=0):
    return factory.create(
        derive_address("blk", "alice"), nonce,
        [EthTransfer(derive_address("blk", "bob"), 1)], gwei(20), gwei(1),
    )


class TestHashing:
    def test_hash_depends_on_contents(self):
        factory = TransactionFactory()
        a = _sealed([_tx(factory)])
        b = _sealed([_tx(factory, nonce=1)])
        assert a.block_hash != b.block_hash

    def test_hash_depends_on_extra_data(self):
        assert _sealed(extra="a").block_hash != _sealed(extra="b").block_hash

    def test_hash_deterministic(self):
        assert (
            compute_block_hash(1, PARENT, FEE_RECIPIENT, (), "x")
            == compute_block_hash(1, PARENT, FEE_RECIPIENT, (), "x")
        )


class TestAccessors:
    def test_last_transaction(self):
        factory = TransactionFactory()
        txs = [_tx(factory, nonce=i) for i in range(3)]
        block = _sealed(txs)
        assert block.last_transaction is txs[-1]

    def test_last_transaction_empty_block(self):
        assert _sealed().last_transaction is None

    def test_number_and_fee_recipient(self):
        block = _sealed(number=42)
        assert block.number == 42
        assert block.fee_recipient == FEE_RECIPIENT
