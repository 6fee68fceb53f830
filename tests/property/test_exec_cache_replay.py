"""Property tests: cached execution replays exactly like direct execution.

Hypothesis drives random transaction sequences — mixed senders and
nonces, transfer values up to overdraft, coinbase tips, mid-sequence
balance mutations, and alternating fee recipients — through two forks of
the same canonical state: one executed directly by the engine, one
through a pre-warmed :class:`ExecutionCache`.  Outcomes, raised errors,
balances, nonces, and burn/mint accounting must be bit-identical.

A second family does the same for protocol actions (token transfers,
swaps, liquidations) over a small DeFi substrate, executed on a builder
fork and a bundle fork taken on it, the nested lazy forks block building
uses; token balances, reserves and positions must match too.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.exec_cache import ExecutionCache
from repro.chain.execution import ExecutionContext, ExecutionEngine, NullProtocols
from repro.chain.state import WorldState
from repro.chain.transaction import (
    EthTransfer,
    LiquidatePosition,
    SwapExact,
    TipCoinbase,
    TokenTransfer,
    TransactionFactory,
)
from repro.defi.lending import LendingMarket
from repro.defi.oracle import PriceOracle
from repro.defi.registry import DefiProtocols
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


# -- protocol actions through nested lazy forks --------------------------

TOKEN_UNITS = {"WETH": 10**15, "USDC": 10**6}  # 0.001 WETH, 1 USDC
POOL = "pool"
MARKET = "aave"
LIQUIDATABLE = derive_address("cache-prop", "borrower-liquidatable")
HEALTHY = derive_address("cache-prop", "borrower-healthy")

_senders = st.integers(min_value=0, max_value=len(SENDERS) - 1)
# Up to 3 WETH or 3,000 USDC: above what most senders hold, so transfers,
# swaps and liquidation repayments also overdraw.
_amounts = st.integers(min_value=1, max_value=3_000)
protocol_actions = st.one_of(
    st.tuples(st.just("transfer"), st.sampled_from(sorted(TOKEN_UNITS)), _amounts),
    # The last field is min_amount_out as a percentage of the canonical
    # pool's quote: above 100 always reverts, near it reverts once other
    # swaps in the sequence moved the price.
    st.tuples(
        st.just("swap"),
        st.sampled_from(sorted(TOKEN_UNITS)),
        _amounts,
        st.integers(min_value=0, max_value=110),
    ),
    st.tuples(st.just("liquidate"), st.sampled_from([LIQUIDATABLE, HEALTHY])),
)
protocol_txs = st.lists(
    st.tuples(
        _senders,
        st.lists(protocol_actions, min_size=1, max_size=2),
        st.integers(min_value=0, max_value=5),  # priority fee, gwei
    ),
    min_size=1,
    max_size=8,
)


def _defi_canonical() -> ExecutionContext:
    """Two tokens, one pool, and a market with positions either side of
    its liquidation threshold."""
    protocols = DefiProtocols.create(
        PriceOracle({"ETH": 2000.0, "WETH": 2000.0, "USDC": 1.0})
    )
    tokens = protocols.tokens
    tokens.deploy("WETH")
    tokens.deploy("USDC", 6)
    protocols.amm.register_pool(
        "WETH", "USDC", ether(100), 200_000 * 10**6, pool_id=POOL
    )
    market = LendingMarket(
        MARKET, tokens, liquidation_threshold=0.8, liquidation_bonus=0.1
    )
    protocols.add_market(market)
    # At the 0.8 threshold 1 WETH of collateral carries 0.8 ETH of debt:
    # 1,650 USDC (0.825 ETH) is liquidatable, 1,550 USDC is not.
    market.open_position(LIQUIDATABLE, "WETH", ether(1), "USDC", 1_650 * 10**6)
    market.open_position(HEALTHY, "WETH", ether(1), "USDC", 1_550 * 10**6)
    state = WorldState()
    for index, sender in enumerate(SENDERS):
        # Sender 0 can pay only a few transactions' gas before the
        # engine refuses its transactions outright.
        state.mint(sender, STARTING_BALANCE if index else ether(0.006))
        tokens.mint("WETH", sender, ether(2))
        tokens.mint("USDC", sender, index * 1_000 * 10**6)
    return ExecutionContext(state=state, protocols=protocols)


def _build_protocol_txs(specs):
    pool = _defi_canonical().protocols.amm.pool(POOL)
    factory = TransactionFactory()
    nonces = dict.fromkeys(range(len(SENDERS)), 0)
    txs = []
    for sender_idx, action_specs, priority in specs:
        actions = []
        for kind, *args in action_specs:
            if kind == "transfer":
                token, amount = args
                recipient = SENDERS[(sender_idx + 1) % len(SENDERS)]
                actions.append(
                    TokenTransfer(token, recipient, amount * TOKEN_UNITS[token])
                )
            elif kind == "swap":
                token, amount, min_out_pct = args
                amount_in = amount * TOKEN_UNITS[token]
                min_out = pool.quote_out(token, amount_in) * min_out_pct // 100
                actions.append(SwapExact(POOL, token, amount_in, min_out))
            else:
                actions.append(LiquidatePosition(MARKET, args[0]))
        txs.append(
            factory.create(
                SENDERS[sender_idx],
                nonces[sender_idx],
                actions,
                gwei(30),
                gwei(priority),
            )
        )
        nonces[sender_idx] += 1
    return txs


def _run_nested(txs, split, commit_bundle, execute):
    """Run ``txs[:split]`` on a builder fork and the rest on a bundle fork
    taken on it; returns (builder, bundle or None, outcome log)."""
    builder = _defi_canonical().fork()
    bundle = None
    log = []
    for index, tx in enumerate(txs):
        if index == split:
            bundle = builder.fork()
        ctx = builder if bundle is None else bundle
        recipient = BUILDER_A if index % 2 == 0 else BUILDER_B
        try:
            outcome = execute(tx, ctx, recipient)
        except ExecutionError as exc:
            log.append(("error", type(exc), str(exc)))
        else:
            log.append(("ok", outcome))
    if bundle is not None and commit_bundle:
        bundle.commit()
        bundle = None
    return builder, bundle, log


def _protocol_state(ctx: ExecutionContext):
    protocols = ctx.protocols
    pool = protocols.amm.pool(POOL)
    market = protocols.market(MARKET)
    holders = (
        *SENDERS, LIQUIDATABLE, HEALTHY, pool.spec.address, market.address
    )
    return (
        [
            protocols.tokens.balance_of(token, holder)
            for token in sorted(TOKEN_UNITS)
            for holder in holders
        ],
        (pool.reserve0, pool.reserve1),
        market.positions(),
        [
            ctx.state.balance_of(address)
            for address in (*SENDERS, BUILDER_A, BUILDER_B)
        ],
        ctx.state.burned_wei,
    )


class TestProtocolReplayThroughNestedForks:
    @given(
        specs=protocol_txs,
        split=st.integers(min_value=0, max_value=8),
        commit_bundle=st.booleans(),
        warm_skip=st.one_of(st.none(), st.integers(min_value=0, max_value=7)),
    )
    @settings(max_examples=80, deadline=None)
    def test_warm_cache_matches_direct_execution(
        self, specs, split, commit_bundle, warm_skip
    ):
        """Hits and re-recorded variants replay swaps, failed swaps and
        liquidations (a position delete is a tombstone write) exactly."""
        engine = ExecutionEngine()
        cache = ExecutionCache()
        txs = _build_protocol_txs(specs)

        def cached(tx, ctx, recipient):
            return cache.execute(engine, tx, ctx, BASE_FEE, recipient)

        def direct(tx, ctx, recipient):
            return engine.execute_transaction(tx, ctx, BASE_FEE, recipient)

        # An earlier builder in the slot ran the same sequence, or the
        # sequence without one transaction, so later reads can diverge
        # and the measured pass records fresh variants too.
        warm = [tx for index, tx in enumerate(txs) if index != warm_skip]
        _run_nested(warm, split, commit_bundle, cached)
        misses = cache.stats.misses
        direct_builder, direct_bundle, direct_log = _run_nested(
            txs, split, commit_bundle, direct
        )
        cached_builder, cached_bundle, cached_log = _run_nested(
            txs, split, commit_bundle, cached
        )
        assert cached_log == direct_log
        assert _protocol_state(cached_builder) == _protocol_state(direct_builder)
        assert (cached_bundle is None) == (direct_bundle is None)
        if cached_bundle is not None:
            assert _protocol_state(cached_bundle) == _protocol_state(direct_bundle)
        if warm_skip is None:
            assert cache.stats.hits == len(txs)
            assert cache.stats.misses == misses
