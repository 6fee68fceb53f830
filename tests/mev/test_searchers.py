"""Unit tests for searcher agents and bundles."""

from collections import Counter

import numpy as np
import pytest

from repro.chain.state import WorldState
from repro.chain.transaction import (
    SwapExact,
    TipCoinbase,
    TransactionFactory,
)
from repro.defi.amm import AmmExchange
from repro.defi.lending import LendingMarket
from repro.defi.oracle import PriceOracle
from repro.defi.tokens import TokenRegistry
from repro.errors import PBSError
from repro.mev.bundles import (
    KIND_ARBITRAGE,
    KIND_LIQUIDATION,
    KIND_SANDWICH,
    make_bundle,
)
import repro.mev.searcher as searcher_module
from repro.mev.searcher import (
    ArbitrageSearcher,
    LiquidationSearcher,
    SandwichSearcher,
    SlotView,
)
from repro.types import derive_address, ether, gwei

SEARCHER_ADDR = derive_address("srch", "bot")
RIVAL_ADDR = derive_address("srch", "rival")


def _view(tokens, amm, markets=None, oracle=None, mempool_txs=None):
    state = WorldState()
    state.mint(SEARCHER_ADDR, ether(100))
    return SlotView(
        slot=5,
        base_fee=gwei(10),
        state=state,
        amm=amm,
        markets=markets or {},
        oracle=oracle or PriceOracle({"ETH": 1500.0, "WETH": 1500.0}),
        tokens=tokens,
        mempool_txs=mempool_txs or [],
        rng=np.random.default_rng(1),
        tx_factory=TransactionFactory(),
    )


@pytest.fixture
def amm_world():
    tokens = TokenRegistry()
    tokens.deploy("WETH")
    tokens.deploy("USDC", 6)
    amm = AmmExchange(tokens)
    amm.register_pool("WETH", "USDC", 1_000 * 10**18, 1_500_000 * 10**6)
    tokens.mint("WETH", SEARCHER_ADDR, 10_000 * 10**18)
    return tokens, amm


class TestBundles:
    def test_bundle_validation(self):
        factory = TransactionFactory()
        tx = factory.create(SEARCHER_ADDR, 0, [TipCoinbase(1)], gwei(20), gwei(1))
        bundle = make_bundle("bot", [tx], KIND_ARBITRAGE, 100, 90)
        assert bundle.gas_limit == tx.gas_limit
        assert bundle.tx_hashes == (tx.tx_hash,)

    def test_empty_bundle_rejected(self):
        with pytest.raises(PBSError):
            make_bundle("bot", [], KIND_ARBITRAGE, 0, 0)

    def test_bad_kind_rejected(self):
        factory = TransactionFactory()
        tx = factory.create(SEARCHER_ADDR, 0, [TipCoinbase(1)], gwei(20), gwei(1))
        with pytest.raises(PBSError):
            make_bundle("bot", [tx], "weird", 0, 0)

    def test_negative_bid_rejected(self):
        factory = TransactionFactory()
        tx = factory.create(SEARCHER_ADDR, 0, [TipCoinbase(1)], gwei(20), gwei(1))
        with pytest.raises(PBSError):
            make_bundle("bot", [tx], KIND_ARBITRAGE, 0, -5)


class TestSandwichSearcher:
    @staticmethod
    def _victim(tokens, amm, slack=0.95, amount=10 * 10**18):
        factory = TransactionFactory()
        victim_addr = derive_address("srch", "victim")
        quote = amm.pool("WETH-USDC-30").quote_out("WETH", amount)
        return factory.create(
            victim_addr,
            0,
            [SwapExact("WETH-USDC-30", "WETH", amount, int(quote * slack))],
            gwei(30),
            gwei(2),
        )

    def test_finds_sandwich(self, amm_world):
        tokens, amm = amm_world
        victim = self._victim(tokens, amm)
        searcher = SandwichSearcher("bot", SEARCHER_ADDR, skill=1.0)
        bundles = searcher.find_bundles(_view(tokens, amm, mempool_txs=[victim]))
        assert len(bundles) == 1
        bundle = bundles[0]
        assert bundle.kind == KIND_SANDWICH
        assert len(bundle.txs) == 3
        assert bundle.txs[1] is victim  # victim embedded between the legs
        assert bundle.bid_wei > 0
        assert bundle.conflict_key == f"sandwich:{victim.tx_hash}"

    def test_skill_zero_finds_nothing(self, amm_world):
        tokens, amm = amm_world
        victim = self._victim(tokens, amm)
        searcher = SandwichSearcher("bot", SEARCHER_ADDR, skill=0.0)
        assert searcher.find_bundles(
            _view(tokens, amm, mempool_txs=[victim])
        ) == []

    def test_small_victims_ignored(self, amm_world):
        tokens, amm = amm_world
        victim = self._victim(tokens, amm, amount=10**16)
        searcher = SandwichSearcher("bot", SEARCHER_ADDR, skill=1.0)
        assert searcher.find_bundles(
            _view(tokens, amm, mempool_txs=[victim])
        ) == []

    def test_tight_victims_ignored(self, amm_world):
        tokens, amm = amm_world
        victim = self._victim(tokens, amm, slack=1.0)
        searcher = SandwichSearcher("bot", SEARCHER_ADDR, skill=1.0)
        assert searcher.find_bundles(
            _view(tokens, amm, mempool_txs=[victim])
        ) == []

    def test_bid_respects_fraction(self, amm_world):
        tokens, amm = amm_world
        victim = self._victim(tokens, amm)
        greedy = SandwichSearcher("a", SEARCHER_ADDR, skill=1.0, bid_fraction=0.5)
        generous = SandwichSearcher("b", SEARCHER_ADDR, skill=1.0, bid_fraction=0.95)
        bundle_a = greedy.find_bundles(_view(tokens, amm, mempool_txs=[victim]))[0]
        bundle_b = generous.find_bundles(_view(tokens, amm, mempool_txs=[victim]))[0]
        assert bundle_b.bid_wei > bundle_a.bid_wei


class TestArbitrageSearcher:
    def test_finds_cross_pool_arb(self):
        tokens = TokenRegistry()
        tokens.deploy("WETH")
        tokens.deploy("USDC", 6)
        amm = AmmExchange(tokens)
        amm.register_pool("WETH", "USDC", 1_000 * 10**18, 1_500_000 * 10**6)
        amm.register_pool(
            "WETH", "USDC", 1_000 * 10**18, 1_600_000 * 10**6, fee_bps=5
        )
        tokens.mint("WETH", SEARCHER_ADDR, 10_000 * 10**18)
        searcher = ArbitrageSearcher("bot", SEARCHER_ADDR, skill=1.0)
        bundles = searcher.find_bundles(_view(tokens, amm))
        assert bundles
        bundle = bundles[0]
        assert bundle.kind == KIND_ARBITRAGE
        assert bundle.expected_profit_wei > 0
        tips = [
            action
            for action in bundle.txs[0].actions
            if isinstance(action, TipCoinbase)
        ]
        assert len(tips) == 1

    def test_no_budget_no_bundles(self, amm_world):
        tokens, amm = amm_world
        broke = derive_address("srch", "broke")
        searcher = ArbitrageSearcher("bot", broke, skill=1.0)
        assert searcher.find_bundles(_view(tokens, amm)) == []


def _counting(monkeypatch, name):
    """Replace ``repro.mev.searcher.<name>`` with a wrapper counting calls."""
    real = getattr(searcher_module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(searcher_module, name, counted)
    return calls


def _search_slot(searchers, view, share_plans):
    """Each searcher's bundles in order, then the view's next draw."""
    found = []
    for searcher in searchers:
        if not share_plans:
            view._plan_cache.clear()
        found.append(searcher.find_bundles(view))
    return found, view.rng.random()


class TestSharedSlotPlans:
    """Searchers in one slot share plans without moving a draw or a bundle."""

    @staticmethod
    def _arb_world(rival_budget):
        tokens = TokenRegistry()
        for symbol, decimals in (("WETH", 18), ("USDC", 6), ("DAI", 18)):
            tokens.deploy(symbol, decimals)
        amm = AmmExchange(tokens)
        amm.register_pool("WETH", "USDC", 1_000 * 10**18, 1_500_000 * 10**6)
        amm.register_pool(
            "WETH", "USDC", 1_000 * 10**18, 1_600_000 * 10**6, fee_bps=5
        )
        amm.register_pool("WETH", "DAI", 1_000 * 10**18, 1_450_000 * 10**18)
        amm.register_pool(
            "USDC", "DAI", 5_000_000 * 10**6, 5_000_000 * 10**18, fee_bps=5
        )
        tokens.mint("WETH", SEARCHER_ADDR, 500 * 10**18)
        tokens.mint("WETH", RIVAL_ADDR, rival_budget)
        return tokens, amm

    @staticmethod
    def _arb_searchers():
        return [
            ArbitrageSearcher("arb-a", SEARCHER_ADDR, skill=1.0),
            ArbitrageSearcher("arb-b", RIVAL_ADDR, skill=1.0, bid_fraction=0.7),
        ]

    def _arb_run(self, monkeypatch, rival_budget, share_plans):
        tokens, amm = self._arb_world(rival_budget)
        calls = _counting(monkeypatch, "plan_cycle_arbitrage")
        found, next_draw = _search_slot(
            self._arb_searchers(), _view(tokens, amm), share_plans
        )
        return found, next_draw, Counter(args[1] for args in calls)

    def test_equal_budgets_plan_each_cycle_once(self, monkeypatch):
        shared, shared_draw, shared_calls = self._arb_run(
            monkeypatch, 500 * 10**18, share_plans=True
        )
        alone, alone_draw, alone_calls = self._arb_run(
            monkeypatch, 500 * 10**18, share_plans=False
        )
        assert len(shared_calls) > 1
        assert set(shared_calls.values()) == {1}
        assert alone_calls == shared_calls + shared_calls
        assert all(shared)
        assert shared == alone
        assert shared_draw == alone_draw

    def test_unequal_budgets_plan_separately(self, monkeypatch):
        shared, shared_draw, shared_calls = self._arb_run(
            monkeypatch, 2 * 10**18, share_plans=True
        )
        alone, alone_draw, alone_calls = self._arb_run(
            monkeypatch, 2 * 10**18, share_plans=False
        )
        assert len(shared_calls) > 1
        assert set(shared_calls.values()) == {2}
        assert shared_calls == alone_calls
        assert shared == alone
        assert shared_draw == alone_draw
        # The smaller budget caps the rival's trade, so its plans differ.
        assert shared[0][0].txs[0].actions != shared[1][0].txs[0].actions

    def test_sandwich_victim_scanned_and_planned_once(self, monkeypatch, amm_world):
        tokens, amm = amm_world
        victim = TestSandwichSearcher._victim(tokens, amm)

        def run(share_plans):
            scans = _counting(monkeypatch, "_sandwich_victims")
            plans = _counting(monkeypatch, "plan_sandwich")
            searchers = [
                SandwichSearcher("sw-a", SEARCHER_ADDR, skill=1.0),
                SandwichSearcher("sw-b", RIVAL_ADDR, skill=1.0, bid_fraction=0.6),
            ]
            view = _view(tokens, amm, mempool_txs=[victim])
            return _search_slot(searchers, view, share_plans), len(scans), len(plans)

        (shared, shared_draw), shared_scans, shared_plans = run(True)
        (alone, alone_draw), alone_scans, alone_plans = run(False)
        assert (shared_scans, shared_plans) == (1, 1)
        assert (alone_scans, alone_plans) == (2, 2)
        assert [len(bundles) for bundles in shared] == [1, 1]
        assert shared == alone
        assert shared_draw == alone_draw


class TestLiquidationSearcher:
    def test_finds_liquidation(self):
        tokens = TokenRegistry()
        tokens.deploy("WETH")
        tokens.deploy("USDC", 6)
        oracle = PriceOracle({"ETH": 1000.0, "WETH": 1000.0, "USDC": 1.0})
        market = LendingMarket("aave", tokens, liquidation_threshold=0.8,
                               liquidation_bonus=0.1)
        borrower = derive_address("srch", "borrower")
        market.open_position(borrower, "WETH", 10**19, "USDC", 6_000 * 10**6)
        oracle.set_price("WETH", 700.0)
        tokens.mint("USDC", SEARCHER_ADDR, 10_000_000 * 10**6)
        searcher = LiquidationSearcher("bot", SEARCHER_ADDR, skill=1.0)
        bundles = searcher.find_bundles(
            _view(tokens, AmmExchange(tokens), markets={"aave": market},
                  oracle=oracle)
        )
        assert len(bundles) == 1
        assert bundles[0].kind == KIND_LIQUIDATION
        assert bundles[0].conflict_key == f"liq:aave:{borrower}"

    def test_unfunded_searcher_skips(self):
        tokens = TokenRegistry()
        tokens.deploy("WETH")
        tokens.deploy("USDC", 6)
        oracle = PriceOracle({"ETH": 1000.0, "WETH": 1000.0, "USDC": 1.0})
        market = LendingMarket("aave", tokens, liquidation_threshold=0.8)
        borrower = derive_address("srch", "b2")
        market.open_position(borrower, "WETH", 10**19, "USDC", 6_000 * 10**6)
        oracle.set_price("WETH", 700.0)
        searcher = LiquidationSearcher("bot", SEARCHER_ADDR, skill=1.0)
        assert searcher.find_bundles(
            _view(tokens, AmmExchange(tokens), markets={"aave": market},
                  oracle=oracle)
        ) == []


class TestSlotView:
    def test_nonce_allocation(self, amm_world):
        tokens, amm = amm_world
        view = _view(tokens, amm)
        assert view.next_nonce(SEARCHER_ADDR) == 0
        assert view.next_nonce(SEARCHER_ADDR) == 1

    def test_searcher_param_validation(self):
        with pytest.raises(ValueError):
            SandwichSearcher("x", SEARCHER_ADDR, skill=1.5)
        with pytest.raises(ValueError):
            SandwichSearcher("x", SEARCHER_ADDR, bid_fraction=-0.1)
