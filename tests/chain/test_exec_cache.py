"""Unit tests for the shared per-slot execution cache.

The cache is a drop-in replacement for ``engine.execute_transaction``:
every test here checks the replay path against direct execution — same
state writes, same outcome objects, same raised errors — plus the
hit/miss bookkeeping the bench reports.
"""

from __future__ import annotations

import pytest

from repro.chain.exec_cache import ExecutionCache, ReadLog
from repro.chain.execution import ExecutionContext, ExecutionEngine, NullProtocols
from repro.chain.state import WorldState
from repro.chain.transaction import (
    EthTransfer,
    SwapExact,
    TipCoinbase,
    TransactionFactory,
)
from repro.defi.oracle import PriceOracle
from repro.defi.registry import DefiProtocols
from repro.errors import DefiError, ExecutionError
from repro.types import derive_address, ether, gwei

ALICE = derive_address("cache", "alice")
BOB = derive_address("cache", "bob")
BUILDER_A = derive_address("cache", "builder-a")
BUILDER_B = derive_address("cache", "builder-b")
BASE_FEE = gwei(10)


@pytest.fixture
def canonical():
    state = WorldState()
    state.mint(ALICE, ether(10))
    return ExecutionContext(state=state, protocols=NullProtocols())


@pytest.fixture
def engine():
    return ExecutionEngine()


@pytest.fixture
def cache():
    return ExecutionCache()


@pytest.fixture
def factory():
    return TransactionFactory()


def _transfer_tx(factory, value=ether(1), max_fee=gwei(20), priority=gwei(2)):
    return factory.create(ALICE, 0, [EthTransfer(BOB, value)], max_fee, priority)


def _assert_same_effects(ctx_a, ctx_b, addresses=(ALICE, BOB, BUILDER_A)):
    for address in addresses:
        assert ctx_a.state.balance_of(address) == ctx_b.state.balance_of(address)
        assert ctx_a.state.nonce_of(address) == ctx_b.state.nonce_of(address)
    assert ctx_a.state.burned_wei == ctx_b.state.burned_wei
    assert ctx_a.state.minted_wei == ctx_b.state.minted_wei


class TestHitMissSemantics:
    def test_first_execution_is_a_miss_then_hits(
        self, cache, engine, canonical, factory
    ):
        tx = _transfer_tx(factory)
        cache.execute(engine, tx, canonical.fork(), BASE_FEE, BUILDER_A)
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        cache.execute(engine, tx, canonical.fork(), BASE_FEE, BUILDER_A)
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)

    def test_replay_matches_direct_execution(
        self, cache, engine, canonical, factory
    ):
        tx = _transfer_tx(factory)
        cache.execute(engine, tx, canonical.fork(), BASE_FEE, BUILDER_A)

        replayed = canonical.fork()
        direct = canonical.fork()
        hit_outcome = cache.execute(engine, tx, replayed, BASE_FEE, BUILDER_A)
        direct_outcome = engine.execute_transaction(
            tx, direct, BASE_FEE, BUILDER_A
        )
        assert hit_outcome == direct_outcome
        _assert_same_effects(replayed, direct)

    def test_state_mismatch_records_second_variant(
        self, cache, engine, canonical, factory
    ):
        tx = _transfer_tx(factory)
        cache.execute(engine, tx, canonical.fork(), BASE_FEE, BUILDER_A)

        richer = canonical.fork()
        richer.state.mint(ALICE, ether(1))  # sender balance read differs
        cache.execute(engine, tx, richer, BASE_FEE, BUILDER_A)
        assert cache.stats.misses == 2
        assert len(cache._variants[tx.tx_hash]) == 2

    def test_fee_recipient_is_parametrized(
        self, cache, engine, canonical, factory
    ):
        tx = _transfer_tx(factory)
        cache.execute(engine, tx, canonical.fork(), BASE_FEE, BUILDER_A)

        fork = canonical.fork()
        outcome = cache.execute(engine, tx, fork, BASE_FEE, BUILDER_B)
        assert cache.stats.hits == 1
        assert fork.state.balance_of(BUILDER_B) == outcome.priority_fee_wei
        assert fork.state.balance_of(BUILDER_A) == 0

    def test_read_of_a_never_funded_account_replays(
        self, cache, engine, canonical, factory
    ):
        """The recorder logs a missing balance or nonce as 0, the value a
        replay reads back.  Two actions take the recorder; a lone transfer
        would take the closed-form path instead."""
        payee = derive_address("cache", "never-funded")
        tx = factory.create(
            ALICE,
            0,
            [EthTransfer(payee, ether(1)), EthTransfer(payee, ether(1))],
            gwei(20),
            gwei(2),
        )
        cache.execute(engine, tx, canonical.fork(), BASE_FEE, BUILDER_A)

        replayed = canonical.fork()
        direct = canonical.fork()
        hit_outcome = cache.execute(engine, tx, replayed, BASE_FEE, BUILDER_A)
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)
        direct_outcome = engine.execute_transaction(
            tx, direct, BASE_FEE, BUILDER_A
        )
        assert hit_outcome == direct_outcome
        _assert_same_effects(replayed, direct, (ALICE, payee, BUILDER_A))
        assert replayed.state.balance_of(payee) == ether(2)

    def test_tx_index_rebinding(self, cache, engine, canonical, factory):
        """A replay at a later block position shares the recorded outcome."""
        carol = derive_address("cache", "carol")
        canonical.state.mint(carol, ether(1))
        tx = _transfer_tx(factory)
        recorded = cache.execute(engine, tx, canonical.fork(), BASE_FEE, BUILDER_A)

        earlier = factory.create(
            carol, 0, [EthTransfer(BUILDER_B, 1)], gwei(20), gwei(1)
        )
        later = canonical.fork()
        cache.execute(engine, earlier, later, BASE_FEE, BUILDER_A)
        replayed = cache.execute(engine, tx, later, BASE_FEE, BUILDER_A)
        assert cache.stats.hits == 1
        assert replayed is recorded

        direct = canonical.fork()
        engine.execute_transaction(earlier, direct, BASE_FEE, BUILDER_A)
        assert replayed == engine.execute_transaction(tx, direct, BASE_FEE, BUILDER_A)

    def test_coinbase_tip_frames_rebound(self, cache, engine, canonical, factory):
        tx = factory.create(ALICE, 0, [TipCoinbase(ether(1))], gwei(20), gwei(1))
        cache.execute(engine, tx, canonical.fork(), BASE_FEE, BUILDER_A)
        outcome = cache.execute(
            engine, tx, canonical.fork(), BASE_FEE, BUILDER_B
        )
        assert outcome.direct_tip_wei == ether(1)
        assert outcome.trace.frames[0].recipient == BUILDER_B

    def test_tip_outcome_rebound_per_fee_recipient(
        self, cache, engine, canonical, factory
    ):
        tx = factory.create(ALICE, 0, [TipCoinbase(ether(1))], gwei(20), gwei(1))
        for_a = cache.execute(engine, tx, canonical.fork(), BASE_FEE, BUILDER_A)
        for_b = cache.execute(engine, tx, canonical.fork(), BASE_FEE, BUILDER_B)
        assert [frame.recipient for frame in for_a.trace.frames] == [BUILDER_A]
        assert [frame.recipient for frame in for_b.trace.frames] == [BUILDER_B]
        assert for_b == engine.execute_transaction(
            tx, canonical.fork(), BASE_FEE, BUILDER_B
        )

        again = cache.execute(engine, tx, canonical.fork(), BASE_FEE, BUILDER_A)
        assert cache.stats.hits == 2
        assert again == for_a


class TestErrorCaching:
    def test_ineligible_fee_cap_raises_on_hit_and_miss(
        self, cache, engine, canonical, factory
    ):
        tx = _transfer_tx(factory, max_fee=gwei(5), priority=gwei(1))
        for _ in range(2):
            with pytest.raises(ExecutionError):
                cache.execute(engine, tx, canonical.fork(), BASE_FEE, BUILDER_A)
        assert (cache.stats.hits, cache.stats.misses) == (1, 1)

    def test_broke_sender_raises_like_direct_execution(
        self, cache, engine, factory
    ):
        broke = ExecutionContext(state=WorldState(), protocols=NullProtocols())
        tx = _transfer_tx(factory)
        with pytest.raises(ExecutionError) as cached_err:
            cache.execute(engine, tx, broke.fork(), BASE_FEE, BUILDER_A)
        with pytest.raises(ExecutionError) as direct_err:
            engine.execute_transaction(tx, broke.fork(), BASE_FEE, BUILDER_A)
        assert str(cached_err.value) == str(direct_err.value)


class TestFailedActions:
    def test_failed_transfer_replay_matches_direct(
        self, cache, engine, canonical, factory
    ):
        tx = _transfer_tx(factory, value=ether(100))  # more than the balance
        cache.execute(engine, tx, canonical.fork(), BASE_FEE, BUILDER_A)

        replayed = canonical.fork()
        direct = canonical.fork()
        hit_outcome = cache.execute(engine, tx, replayed, BASE_FEE, BUILDER_A)
        direct_outcome = engine.execute_transaction(
            tx, direct, BASE_FEE, BUILDER_A
        )
        assert not hit_outcome.success
        assert hit_outcome == direct_outcome
        _assert_same_effects(replayed, direct)

    def test_multi_action_failure_charges_fee_only(
        self, cache, engine, canonical, factory
    ):
        actions = [EthTransfer(BOB, ether(1)), EthTransfer(BOB, ether(100))]
        tx = factory.create(ALICE, 0, actions, gwei(20), gwei(2))
        cache.execute(engine, tx, canonical.fork(), BASE_FEE, BUILDER_A)

        replayed = canonical.fork()
        direct = canonical.fork()
        hit_outcome = cache.execute(engine, tx, replayed, BASE_FEE, BUILDER_A)
        direct_outcome = engine.execute_transaction(
            tx, direct, BASE_FEE, BUILDER_A
        )
        assert not hit_outcome.success
        assert hit_outcome == direct_outcome
        assert replayed.state.balance_of(BOB) == 0  # fully reverted
        _assert_same_effects(replayed, direct)


class TestProtocolWrites:
    @pytest.fixture
    def defi_canonical(self):
        protocols = DefiProtocols.create(
            PriceOracle({"WETH": 2000.0, "USDC": 1.0})
        )
        protocols.tokens.deploy("WETH")
        protocols.tokens.deploy("USDC", 6)
        protocols.amm.register_pool(
            "WETH", "USDC", ether(100), 200_000 * 10**6, pool_id="pool"
        )
        protocols.tokens.mint("WETH", ALICE, ether(5))
        state = WorldState()
        state.mint(ALICE, ether(10))
        return ExecutionContext(state=state, protocols=protocols)

    def test_swap_replay_matches_direct(
        self, cache, engine, defi_canonical, factory
    ):
        tx = factory.create(
            ALICE,
            0,
            [SwapExact("pool", "WETH", ether(1), 0)],
            gwei(20),
            gwei(2),
        )
        cache.execute(engine, tx, defi_canonical.fork(), BASE_FEE, BUILDER_A)

        replayed = defi_canonical.fork()
        direct = defi_canonical.fork()
        hit_outcome = cache.execute(engine, tx, replayed, BASE_FEE, BUILDER_A)
        direct_outcome = engine.execute_transaction(
            tx, direct, BASE_FEE, BUILDER_A
        )
        assert cache.stats.hits == 1
        assert hit_outcome == direct_outcome
        assert replayed.protocols.amm.pool("pool") == direct.protocols.amm.pool(
            "pool"
        )
        assert replayed.protocols.tokens.balance_of(
            "USDC", ALICE
        ) == direct.protocols.tokens.balance_of("USDC", ALICE)
        _assert_same_effects(replayed, direct)

    def test_fork_with_log_records_reads_and_refuses_commit(
        self, defi_canonical
    ):
        builder = defi_canonical.protocols.fork()
        log = ReadLog()
        recording = builder.fork(log)
        recording.tokens.transfer("WETH", ALICE, BOB, ether(1))
        recording.amm.pool("pool")
        assert log.protocols == [
            ("t", ("WETH", ALICE), ether(5)),
            ("t", ("WETH", BOB), None),
            ("r", "pool", (ether(100), 200_000 * 10**6)),
        ]
        assert recording.extract_writes() == [
            ("t", [(("WETH", ALICE), ether(4)), (("WETH", BOB), ether(1))]),
        ]
        with pytest.raises(DefiError):
            recording.commit()
        # The caller's fork saw none of the recording's writes.
        assert builder.tokens.balance_of("WETH", ALICE) == ether(5)
        assert builder.tokens.balance_of("WETH", BOB) == 0

    def test_reserve_change_invalidates_variant(
        self, cache, engine, defi_canonical, factory
    ):
        tx = factory.create(
            ALICE,
            0,
            [SwapExact("pool", "WETH", ether(1), 0)],
            gwei(20),
            gwei(2),
        )
        cache.execute(engine, tx, defi_canonical.fork(), BASE_FEE, BUILDER_A)

        moved = defi_canonical.fork()
        # Another swap moves the pool price, so the cached reserve read no
        # longer matches and a fresh variant must be recorded.
        moved.protocols.tokens.mint("WETH", BOB, ether(1))
        moved.protocols.amm.swap(
            "pool", BOB, "WETH", ether(1), 0, moved.protocols.tokens
        )
        cache.execute(engine, tx, moved, BASE_FEE, BUILDER_A)
        assert cache.stats.misses == 2
        assert len(cache._variants[tx.tx_hash]) == 2
