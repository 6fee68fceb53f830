"""Unit tests for transactions and their fee semantics."""

import copy
import dataclasses
import pickle

import pytest

from repro.chain.transaction import (
    COINBASE_TIP_GAS,
    ETH_TRANSFER_GAS,
    EthTransfer,
    INTRINSIC_GAS,
    LIQUIDATION_GAS,
    LiquidatePosition,
    SWAP_GAS,
    SwapExact,
    TOKEN_TRANSFER_GAS,
    TipCoinbase,
    TokenTransfer,
    TransactionFactory,
)
from repro.errors import ConfigError
from repro.types import derive_address, gwei

SENDER = derive_address("test", "sender")
OTHER = derive_address("test", "other")
FACTORY = TransactionFactory()


def _tx(**kwargs):
    defaults = dict(
        sender=SENDER,
        nonce=0,
        actions=[EthTransfer(OTHER, 100)],
        max_fee_per_gas=gwei(30),
        max_priority_fee_per_gas=gwei(2),
    )
    defaults.update(kwargs)
    return FACTORY.create(**defaults)


class TestConstruction:
    def test_hashes_unique(self):
        assert _tx().tx_hash != _tx().tx_hash

    def test_factory_deterministic_per_instance(self):
        a = TransactionFactory().create(SENDER, 0, [EthTransfer(OTHER, 1)], 10, 1)
        b = TransactionFactory().create(SENDER, 0, [EthTransfer(OTHER, 1)], 10, 1)
        assert a.tx_hash == b.tx_hash

    def test_priority_above_max_fee_rejected(self):
        with pytest.raises(ConfigError):
            _tx(max_fee_per_gas=gwei(1), max_priority_fee_per_gas=gwei(2))

    def test_negative_extra_gas_rejected(self):
        with pytest.raises(ConfigError):
            _tx(extra_gas=-1)

    @pytest.mark.parametrize(
        "make",
        [lambda: EthTransfer(OTHER, -1), lambda: TipCoinbase(-1)],
        ids=["eth_transfer", "coinbase_tip"],
    )
    def test_negative_value_rejected(self, make):
        # Rejected at construction: executing one would otherwise charge
        # the fee and bump the nonce before the transfer raises, an effect
        # the execution cache does not replay.
        with pytest.raises(ConfigError, match="negative"):
            make()


class TestGas:
    def test_intrinsic_only_for_plain_transfer(self):
        assert _tx().gas_limit == INTRINSIC_GAS

    def test_swap_gas_adds(self):
        tx = _tx(actions=[SwapExact("p", "WETH", 1, 0)])
        assert tx.gas_limit == INTRINSIC_GAS + SWAP_GAS

    def test_extra_gas_adds(self):
        assert _tx(extra_gas=100_000).gas_limit == INTRINSIC_GAS + 100_000

    def test_multiple_actions_sum(self):
        tx = _tx(
            actions=[
                EthTransfer(OTHER, 1),
                TokenTransfer("USDC", OTHER, 5),
                SwapExact("p", "WETH", 1, 0),
                LiquidatePosition("aave", OTHER),
                TipCoinbase(7),
            ],
            extra_gas=1_234,
        )
        assert tx.gas_limit == (
            INTRINSIC_GAS
            + ETH_TRANSFER_GAS
            + TOKEN_TRANSFER_GAS
            + SWAP_GAS
            + LIQUIDATION_GAS
            + COINBASE_TIP_GAS
            + 1_234
        )


class TestGasLimitField:
    """``gas_limit`` is a field set at construction, outside repr, == and hash."""

    def test_repr_eq_and_hash_ignore_it(self):
        tx = _tx(actions=[SwapExact("p", "WETH", 1, 0)])
        assert "gas_limit" not in repr(tx)
        other = copy.copy(tx)
        object.__setattr__(other, "gas_limit", tx.gas_limit + 1)
        assert other == tx
        assert hash(other) == hash(tx)

    def test_replace_recomputes_it(self):
        tx = _tx(actions=[SwapExact("p", "WETH", 1, 0)])
        heavier = dataclasses.replace(tx, extra_gas=50_000)
        assert heavier.gas_limit == INTRINSIC_GAS + SWAP_GAS + 50_000
        assert tx.gas_limit == INTRINSIC_GAS + SWAP_GAS

    def test_copy_and_pickle_keep_it(self):
        tx = _tx(actions=[TipCoinbase(3)], extra_gas=10)
        for clone in (copy.copy(tx), pickle.loads(pickle.dumps(tx))):
            assert clone == tx
            assert clone.gas_limit == tx.gas_limit == (
                INTRINSIC_GAS + COINBASE_TIP_GAS + 10
            )


class TestFees:
    def test_eligibility(self):
        tx = _tx(max_fee_per_gas=gwei(10))
        assert tx.is_eligible(gwei(10))
        assert not tx.is_eligible(gwei(11))

    def test_priority_capped_by_headroom(self):
        tx = _tx(max_fee_per_gas=gwei(10), max_priority_fee_per_gas=gwei(4))
        # At base fee 8, only 2 gwei of headroom remains.
        assert tx.priority_fee_per_gas(gwei(8)) == gwei(2)

    def test_priority_full_when_headroom_allows(self):
        tx = _tx(max_fee_per_gas=gwei(10), max_priority_fee_per_gas=gwei(4))
        assert tx.priority_fee_per_gas(gwei(3)) == gwei(4)
