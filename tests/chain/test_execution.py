"""Unit tests for the execution engine."""

import pytest

from repro.chain.execution import ExecutionContext, ExecutionEngine, NullProtocols
from repro.chain.state import WorldState
from repro.chain.traces import FRAME_COINBASE_TIP, FRAME_TOP_LEVEL
from repro.chain.transaction import (
    EthTransfer,
    SwapExact,
    TipCoinbase,
    TokenTransfer,
    TransactionFactory,
)
from repro.defi.lending import LendingMarket
from repro.defi.oracle import PriceOracle
from repro.defi.registry import DefiProtocols
from repro.errors import DefiError, ExecutionError
from repro.types import derive_address, ether, gwei

ALICE = derive_address("exec", "alice")
BOB = derive_address("exec", "bob")
FEE_RECIPIENT = derive_address("exec", "builder")
BASE_FEE = gwei(10)


@pytest.fixture
def ctx():
    state = WorldState()
    state.mint(ALICE, ether(10))
    return ExecutionContext(state=state, protocols=NullProtocols())


@pytest.fixture
def defi_ctx():
    """A root context whose protocols hold tokens, a pool and a market."""
    protocols = DefiProtocols.create(PriceOracle({"WETH": 2000.0, "USDC": 1.0}))
    protocols.tokens.deploy("WETH")
    protocols.tokens.deploy("USDC", 6)
    protocols.amm.register_pool(
        "WETH", "USDC", ether(100), 200_000 * 10**6, pool_id="pool"
    )
    protocols.add_market(LendingMarket("aave", protocols.tokens))
    protocols.tokens.mint("WETH", ALICE, ether(5))
    state = WorldState()
    state.mint(ALICE, ether(10))
    return ExecutionContext(state=state, protocols=protocols)


@pytest.fixture
def engine():
    return ExecutionEngine()


@pytest.fixture
def factory():
    return TransactionFactory()


def _transfer_tx(factory, value=ether(1), max_fee=gwei(20), priority=gwei(2)):
    return factory.create(ALICE, 0, [EthTransfer(BOB, value)], max_fee, priority)


def _swap_tx(factory, nonce=0):
    return factory.create(
        ALICE, nonce, [SwapExact("pool", "WETH", ether(1), 0)], gwei(20), gwei(2)
    )


def _token_tx(factory, nonce=0):
    return factory.create(
        ALICE, nonce, [TokenTransfer("WETH", BOB, ether(2))], gwei(20), gwei(2)
    )


class TestSingleTransaction:
    def test_successful_transfer(self, engine, ctx, factory):
        outcome = engine.execute_transaction(
            _transfer_tx(factory), ctx, BASE_FEE, FEE_RECIPIENT
        )
        assert outcome.success
        assert ctx.state.balance_of(BOB) == ether(1)

    def test_fee_split(self, engine, ctx, factory):
        tx = _transfer_tx(factory)
        outcome = engine.execute_transaction(tx, ctx, BASE_FEE, FEE_RECIPIENT)
        gas = tx.gas_limit
        assert outcome.burned_wei == gas * BASE_FEE
        assert outcome.priority_fee_wei == gas * gwei(2)
        assert ctx.state.balance_of(FEE_RECIPIENT) == outcome.priority_fee_wei
        assert ctx.state.burned_wei == outcome.burned_wei

    def test_nonce_bumped(self, engine, ctx, factory):
        engine.execute_transaction(_transfer_tx(factory), ctx, BASE_FEE, FEE_RECIPIENT)
        assert ctx.state.nonce_of(ALICE) == 1

    def test_ineligible_fee_cap_raises(self, engine, ctx, factory):
        tx = _transfer_tx(factory, max_fee=gwei(5), priority=gwei(1))
        with pytest.raises(ExecutionError):
            engine.execute_transaction(tx, ctx, BASE_FEE, FEE_RECIPIENT)

    def test_cannot_pay_gas_raises(self, engine, factory):
        state = WorldState()  # broke sender
        ctx = ExecutionContext(state=state, protocols=NullProtocols())
        with pytest.raises(ExecutionError):
            engine.execute_transaction(
                _transfer_tx(factory), ctx, BASE_FEE, FEE_RECIPIENT
            )

    def test_failed_action_reverts_but_charges_fee(self, engine, ctx, factory):
        # Transfer more than the balance: action fails, fee still charged.
        tx = _transfer_tx(factory, value=ether(100))
        outcome = engine.execute_transaction(tx, ctx, BASE_FEE, FEE_RECIPIENT)
        assert not outcome.success
        assert ctx.state.balance_of(BOB) == 0
        assert ctx.state.balance_of(FEE_RECIPIENT) > 0
        assert outcome.trace.frames == ()
        assert outcome.receipt.logs == ()

    def test_protocol_action_without_protocols_fails_tx(self, engine, ctx, factory):
        tx = factory.create(
            ALICE, 0, [SwapExact("p", "WETH", 1, 0)], gwei(20), gwei(1)
        )
        outcome = engine.execute_transaction(tx, ctx, BASE_FEE, FEE_RECIPIENT)
        assert not outcome.success

    def test_coinbase_tip_traced_internal(self, engine, ctx, factory):
        tx = factory.create(
            ALICE, 0, [TipCoinbase(ether(0.5))], gwei(20), gwei(1)
        )
        outcome = engine.execute_transaction(tx, ctx, BASE_FEE, FEE_RECIPIENT)
        assert outcome.direct_tip_wei == ether(0.5)
        kinds = [frame.kind for frame in outcome.trace.frames]
        assert kinds == [FRAME_COINBASE_TIP]

    def test_top_level_transfer_not_a_direct_tip(self, engine, ctx, factory):
        # An explicit transfer *to* the fee recipient at the top level is
        # not a "direct transfer" in the paper's sense.
        tx = factory.create(
            ALICE, 0, [EthTransfer(FEE_RECIPIENT, ether(1))], gwei(20), gwei(1)
        )
        outcome = engine.execute_transaction(tx, ctx, BASE_FEE, FEE_RECIPIENT)
        assert outcome.direct_tip_wei == 0
        assert outcome.trace.frames[0].kind == FRAME_TOP_LEVEL

    def test_conservation(self, engine, ctx, factory):
        engine.execute_transaction(_transfer_tx(factory), ctx, BASE_FEE, FEE_RECIPIENT)
        state = ctx.state
        assert state.total_supply() == state.minted_wei - state.burned_wei


class TestBlockExecution:
    def test_orders_and_drops(self, engine, ctx, factory):
        good = _transfer_tx(factory)
        bad_fee = factory.create(
            ALICE, 1, [EthTransfer(BOB, 1)], gwei(2), gwei(1)
        )
        result = engine.execute_block(
            [good, bad_fee], ctx, BASE_FEE, FEE_RECIPIENT, gas_limit=30_000_000
        )
        assert [tx.tx_hash for tx in result.included] == [good.tx_hash]
        assert result.dropped == [bad_fee.tx_hash]

    def test_gas_limit_respected(self, engine, ctx, factory):
        txs = [
            factory.create(ALICE, i, [EthTransfer(BOB, 1)], gwei(20), gwei(1))
            for i in range(5)
        ]
        limit = txs[0].gas_limit * 2  # room for exactly two
        result = engine.execute_block(txs, ctx, BASE_FEE, FEE_RECIPIENT, limit)
        assert len(result.included) == 2
        assert result.gas_used <= limit

    def test_block_value_is_priority_plus_tips(self, engine, ctx, factory):
        tip_tx = factory.create(ALICE, 0, [TipCoinbase(1000)], gwei(20), gwei(1))
        result = engine.execute_block(
            [tip_tx], ctx, BASE_FEE, FEE_RECIPIENT, gas_limit=30_000_000
        )
        assert result.block_value_wei == result.priority_fees_wei + 1000

    def test_receipts_indexed_in_order(self, engine, ctx, factory):
        txs = [
            factory.create(ALICE, i, [EthTransfer(BOB, 1)], gwei(20), gwei(1))
            for i in range(3)
        ]
        result = engine.execute_block(
            txs, ctx, BASE_FEE, FEE_RECIPIENT, gas_limit=30_000_000
        )
        # A transaction's position is its index in the block's lists.
        assert result.included == txs
        assert [r.tx_hash for r in result.receipts] == [
            tx.tx_hash for tx in result.included
        ]

    def test_empty_block(self, engine, ctx):
        result = engine.execute_block([], ctx, BASE_FEE, FEE_RECIPIENT, 30_000_000)
        assert result.gas_used == 0
        assert result.block_value_wei == 0


class TestSpeculation:
    def test_fork_isolation(self, engine, ctx, factory):
        fork = ctx.fork()
        engine.execute_transaction(_transfer_tx(factory), fork, BASE_FEE, FEE_RECIPIENT)
        assert ctx.state.balance_of(BOB) == 0
        fork.commit()
        assert ctx.state.balance_of(BOB) == ether(1)

    def test_protocol_fork_isolation_and_commit(self, engine, defi_ctx, factory):
        protocols = defi_ctx.protocols
        pool_before = protocols.amm.pool("pool")
        fork = defi_ctx.fork()
        for tx in (_swap_tx(factory, 0), _token_tx(factory, 1)):
            outcome = engine.execute_transaction(tx, fork, BASE_FEE, FEE_RECIPIENT)
            assert outcome.success
        pool_on_fork = fork.protocols.amm.pool("pool")
        assert pool_on_fork != pool_before

        # The parent's reserves and token balances are untouched.
        assert protocols.amm.pool("pool") == pool_before
        assert protocols.tokens.balance_of("WETH", ALICE) == ether(5)
        assert protocols.tokens.balance_of("WETH", BOB) == 0
        assert protocols.tokens.balance_of("USDC", ALICE) == 0
        # No action touched the lending market, so the fork never
        # materialised a copy of its positions.
        assert "aave" not in fork.protocols._markets

        fork.commit()
        assert protocols.amm.pool("pool") == pool_on_fork
        assert protocols.tokens.balance_of("WETH", ALICE) == ether(2)
        assert protocols.tokens.balance_of("WETH", BOB) == ether(2)
        assert protocols.tokens.balance_of("USDC", ALICE) > 0
        with pytest.raises(DefiError):
            protocols.commit()

    def test_nested_protocol_fork_commits_one_level(
        self, engine, defi_ctx, factory
    ):
        protocols = defi_ctx.protocols
        outer = defi_ctx.fork()
        inner = outer.fork()
        engine.execute_transaction(_token_tx(factory), inner, BASE_FEE, FEE_RECIPIENT)

        inner.commit()
        assert outer.protocols.tokens.balance_of("WETH", BOB) == ether(2)
        assert protocols.tokens.balance_of("WETH", BOB) == 0

        outer.commit()
        assert protocols.tokens.balance_of("WETH", BOB) == ether(2)
        assert protocols.tokens.balance_of("WETH", ALICE) == ether(3)
