"""Property tests: cached execution replays exactly like direct execution.

Hypothesis drives random transaction sequences — mixed senders and
nonces, transfer values up to overdraft, coinbase tips, mid-sequence
balance mutations, and alternating fee recipients — through two forks of
the same canonical state: one executed directly by the engine, one
through a pre-warmed :class:`ExecutionCache`.  Outcomes, raised errors,
balances, nonces, and burn/mint accounting must be bit-identical.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.exec_cache import ExecutionCache
from repro.chain.execution import ExecutionContext, ExecutionEngine, NullProtocols
from repro.chain.state import WorldState
from repro.chain.transaction import EthTransfer, TipCoinbase, TransactionFactory
from repro.errors import ExecutionError
from repro.types import derive_address, ether, gwei

SENDERS = tuple(
    derive_address("cache-prop", f"sender-{i}") for i in range(3)
)
RECIPIENT = derive_address("cache-prop", "recipient")
BUILDER_A = derive_address("cache-prop", "builder-a")
BUILDER_B = derive_address("cache-prop", "builder-b")
BASE_FEE = gwei(10)
STARTING_BALANCE = ether(2)

# One random transaction: who sends, what it does, and how it tips.
tx_specs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=len(SENDERS) - 1),
        st.sampled_from(["transfer", "tip"]),
        # Up to 3 ETH: values near/above the 2-ETH balance exercise the
        # overdraft (raise) path and the failed-receipt path.
        st.integers(min_value=1, max_value=3 * 10**18),
        st.integers(min_value=0, max_value=5),  # priority fee, gwei
    ),
    min_size=1,
    max_size=8,
)

# Mid-sequence pool mutation: after which tx, which sender, how much.
mutations = st.one_of(
    st.none(),
    st.tuples(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=len(SENDERS) - 1),
        st.integers(min_value=1, max_value=10**18),
    ),
)


def _canonical() -> ExecutionContext:
    state = WorldState()
    for sender in SENDERS:
        state.mint(sender, STARTING_BALANCE)
    return ExecutionContext(state=state, protocols=NullProtocols())


def _build_txs(specs):
    factory = TransactionFactory()
    nonces = dict.fromkeys(range(len(SENDERS)), 0)
    txs = []
    for sender_idx, kind, value, priority in specs:
        action = (
            EthTransfer(RECIPIENT, value)
            if kind == "transfer"
            else TipCoinbase(value)
        )
        txs.append(
            factory.create(
                SENDERS[sender_idx],
                nonces[sender_idx],
                [action],
                gwei(30),
                gwei(priority),
            )
        )
        nonces[sender_idx] += 1
    return txs


def _run(txs, mutation, execute):
    """Execute a sequence, recording outcomes and typed failures."""
    ctx = _canonical()
    log = []
    for index, tx in enumerate(txs):
        if mutation is not None and mutation[0] == index:
            ctx.state.mint(SENDERS[mutation[1]], mutation[2])
        recipient = BUILDER_A if index % 2 == 0 else BUILDER_B
        try:
            outcome = execute(tx, ctx, recipient)
        except ExecutionError as exc:
            log.append(("error", str(exc)))
        else:
            log.append(("ok", outcome))
    return ctx, log


def _assert_equivalent(direct_ctx, direct_log, cached_ctx, cached_log):
    assert cached_log == direct_log
    for address in (*SENDERS, RECIPIENT, BUILDER_A, BUILDER_B):
        assert cached_ctx.state.balance_of(address) == direct_ctx.state.balance_of(
            address
        )
        assert cached_ctx.state.nonce_of(address) == direct_ctx.state.nonce_of(
            address
        )
    assert cached_ctx.state.burned_wei == direct_ctx.state.burned_wei
    assert cached_ctx.state.minted_wei == direct_ctx.state.minted_wei


class TestCacheReplayEquivalence:
    @given(specs=tx_specs, mutation=mutations)
    @settings(max_examples=60)
    def test_cold_cache_matches_direct_execution(self, specs, mutation):
        """First-touch (all misses): the record path must be transparent."""
        engine = ExecutionEngine()
        cache = ExecutionCache()
        txs = _build_txs(specs)
        direct = _run(
            txs,
            mutation,
            lambda tx, ctx, recipient: engine.execute_transaction(
                tx, ctx, BASE_FEE, recipient
            ),
        )
        cached = _run(
            txs,
            mutation,
            lambda tx, ctx, recipient: cache.execute(
                engine, tx, ctx, BASE_FEE, recipient
            ),
        )
        _assert_equivalent(*direct, *cached)

    @given(specs=tx_specs, mutation=mutations)
    @settings(max_examples=60)
    def test_warm_cache_matches_direct_execution(self, specs, mutation):
        """Replay path: a pre-warmed cache must hit and stay bit-identical."""
        engine = ExecutionEngine()
        cache = ExecutionCache()
        txs = _build_txs(specs)
        # A first pass over an identical sequence on separate forked
        # state, as an earlier builder in the slot would run it.
        _run(
            txs,
            mutation,
            lambda tx, ctx, recipient: cache.execute(
                engine, tx, ctx, BASE_FEE, BUILDER_A
            ),
        )
        direct = _run(
            txs,
            mutation,
            lambda tx, ctx, recipient: engine.execute_transaction(
                tx, ctx, BASE_FEE, recipient
            ),
        )
        cached = _run(
            txs,
            mutation,
            lambda tx, ctx, recipient: cache.execute(
                engine, tx, ctx, BASE_FEE, recipient
            ),
        )
        _assert_equivalent(*direct, *cached)
        assert cache.stats.hits > 0

    @given(
        value=st.integers(min_value=1, max_value=10**18),
        priority=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=40)
    def test_fee_recipient_is_a_true_parameter(self, value, priority):
        """A hit replayed for a different builder pays that builder."""
        engine = ExecutionEngine()
        cache = ExecutionCache()
        factory = TransactionFactory()
        tx = factory.create(
            SENDERS[0], 0, [EthTransfer(RECIPIENT, value)], gwei(30), gwei(priority)
        )
        canonical = _canonical()
        cache.execute(engine, tx, canonical.fork(), BASE_FEE, BUILDER_A)

        replayed = canonical.fork()
        direct = canonical.fork()
        hit = cache.execute(engine, tx, replayed, BASE_FEE, BUILDER_B)
        ref = engine.execute_transaction(tx, direct, BASE_FEE, BUILDER_B)
        assert hit == ref
        assert cache.stats.hits == 1
        assert replayed.state.balance_of(BUILDER_B) == direct.state.balance_of(
            BUILDER_B
        )
        assert replayed.state.balance_of(BUILDER_A) == 0
