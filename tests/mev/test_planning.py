"""Unit tests for MEV opportunity planning (sandwich, arbitrage, liquidation)."""

import pytest

from repro.defi.amm import AmmExchange, LiquidityPool
from repro.defi.lending import LendingMarket
from repro.defi.oracle import PriceOracle
from repro.defi.tokens import TokenRegistry
from repro.errors import SwapError
from repro.mev.arbitrage import find_arbitrage_cycles, plan_cycle_arbitrage
from repro.mev.liquidation import plan_liquidations
from repro.mev.sandwich import plan_sandwich
from repro.types import derive_address


@pytest.fixture
def amm_setup():
    tokens = TokenRegistry()
    for symbol, decimals in (("WETH", 18), ("USDC", 6), ("DAI", 18)):
        tokens.deploy(symbol, decimals)
    amm = AmmExchange(tokens)
    amm.register_pool("WETH", "USDC", 1_000 * 10**18, 1_500_000 * 10**6)
    return tokens, amm


class TestSandwichPlanning:
    def test_slack_enables_sandwich(self, amm_setup):
        _, amm = amm_setup
        pool = amm.pool("WETH-USDC-30")
        victim_in = 10 * 10**18
        quote = pool.quote_out("WETH", victim_in)
        loose_min_out = int(quote * 0.95)  # 5% slippage tolerance
        plan = plan_sandwich(pool, victim_in, loose_min_out, "WETH")
        assert plan is not None
        assert plan.profit > 0
        assert plan.victim_amount_out >= loose_min_out

    def test_tight_slippage_defeats_sandwich(self, amm_setup):
        _, amm = amm_setup
        pool = amm.pool("WETH-USDC-30")
        victim_in = 10 * 10**18
        quote = pool.quote_out("WETH", victim_in)
        plan = plan_sandwich(pool, victim_in, quote, "WETH", min_profit=0)
        assert plan is None

    def test_min_profit_threshold(self, amm_setup):
        _, amm = amm_setup
        pool = amm.pool("WETH-USDC-30")
        victim_in = 10 * 10**18
        quote = pool.quote_out("WETH", victim_in)
        loose = int(quote * 0.95)
        greedy = plan_sandwich(pool, victim_in, loose, "WETH", min_profit=10**24)
        assert greedy is None

    def test_zero_victim_rejected(self, amm_setup):
        _, amm = amm_setup
        pool = amm.pool("WETH-USDC-30")
        assert plan_sandwich(pool, 0, 0, "WETH") is None

    def test_larger_slack_more_profit(self, amm_setup):
        _, amm = amm_setup
        pool = amm.pool("WETH-USDC-30")
        victim_in = 10 * 10**18
        quote = pool.quote_out("WETH", victim_in)
        small = plan_sandwich(pool, victim_in, int(quote * 0.99), "WETH")
        large = plan_sandwich(pool, victim_in, int(quote * 0.90), "WETH")
        assert large is not None
        if small is not None:
            assert large.profit >= small.profit


class TestArbitragePlanning:
    def _two_pool_setup(self, skew: float):
        tokens = TokenRegistry()
        tokens.deploy("WETH")
        tokens.deploy("USDC", 6)
        amm = AmmExchange(tokens)
        amm.register_pool("WETH", "USDC", 1_000 * 10**18, 1_500_000 * 10**6)
        # Second pool priced `skew` times higher for WETH.
        amm.register_pool(
            "WETH", "USDC",
            1_000 * 10**18, int(1_500_000 * skew) * 10**6,
            fee_bps=5,
        )
        return amm

    def test_cycles_found(self):
        amm = self._two_pool_setup(1.0)
        cycles = find_arbitrage_cycles(amm)
        assert len(cycles) == 1
        assert set(cycles[0]) == {"WETH-USDC-30", "WETH-USDC-5"}

    def test_balanced_pools_no_arb(self):
        amm = self._two_pool_setup(1.0)
        cycles = find_arbitrage_cycles(amm)
        assert plan_cycle_arbitrage(amm, cycles[0]) is None

    def test_skewed_pools_profitable(self):
        amm = self._two_pool_setup(1.05)  # 5% discrepancy
        cycles = find_arbitrage_cycles(amm)
        plans = [
            plan_cycle_arbitrage(amm, cycle)
            for cycle in cycles
        ]
        profitable = [plan for plan in plans if plan is not None]
        assert profitable
        plan = profitable[0]
        assert plan.profit > 0
        assert plan.hops[0][1] == "WETH"
        # Hop chaining: output of hop k is the input of hop k+1.
        for first, second in zip(plan.hops, plan.hops[1:]):
            assert first[3] == second[2]

    def test_input_capped(self):
        amm = self._two_pool_setup(1.05)
        cycles = find_arbitrage_cycles(amm)
        plan = plan_cycle_arbitrage(amm, cycles[0], max_input=10**18)
        assert plan is not None
        assert plan.amount_in <= 10**18

    def test_quote_errors_mean_no_plan(self, monkeypatch):
        amm = self._two_pool_setup(1.05)
        cycle = find_arbitrage_cycles(amm)[0]

        def failing_quote(pool, token_in, amount_in):
            raise SwapError("no liquidity")

        monkeypatch.setattr(LiquidityPool, "quote_out", failing_quote)
        assert plan_cycle_arbitrage(amm, cycle) is None

    def test_unexpected_errors_escape_sizing(self, monkeypatch):
        amm = self._two_pool_setup(1.05)
        cycle = find_arbitrage_cycles(amm)[0]
        real_quote = LiquidityPool.quote_out

        def broken_quote(pool, token_in, amount_in):
            if pool.pool_id == cycle[-1]:
                raise RuntimeError("quote bug")
            return real_quote(pool, token_in, amount_in)

        monkeypatch.setattr(LiquidityPool, "quote_out", broken_quote)
        with pytest.raises(RuntimeError, match="quote bug"):
            plan_cycle_arbitrage(amm, cycle)

    def test_no_cycles_without_start_token(self):
        tokens = TokenRegistry()
        tokens.deploy("DAI")
        tokens.deploy("USDC", 6)
        amm = AmmExchange(tokens)
        amm.register_pool("DAI", "USDC", 10**24, 10**12)
        assert find_arbitrage_cycles(amm, start_token="WETH") == []


class TestLiquidationPlanning:
    def test_plans_sorted_by_bonus(self):
        tokens = TokenRegistry()
        tokens.deploy("WETH")
        tokens.deploy("USDC", 6)
        oracle = PriceOracle({"ETH": 1000.0, "WETH": 1000.0, "USDC": 1.0})
        market = LendingMarket("aave", tokens, liquidation_threshold=0.8,
                               liquidation_bonus=0.1)
        small = derive_address("mevliq", "small")
        big = derive_address("mevliq", "big")
        market.open_position(small, "WETH", 10**18, "USDC", 700 * 10**6)
        market.open_position(big, "WETH", 10 * 10**18, "USDC", 7_000 * 10**6)
        oracle.set_price("WETH", 800.0)  # both unhealthy now
        plans = plan_liquidations({"aave": market}, oracle, tokens)
        assert [plan.borrower for plan in plans] == [big, small]
        assert plans[0].expected_bonus_wei > plans[1].expected_bonus_wei

    def test_healthy_market_no_plans(self):
        tokens = TokenRegistry()
        tokens.deploy("WETH")
        tokens.deploy("USDC", 6)
        oracle = PriceOracle({"ETH": 1000.0, "WETH": 1000.0, "USDC": 1.0})
        market = LendingMarket("aave", tokens)
        market.open_position(
            derive_address("mevliq", "b"), "WETH", 10**19, "USDC", 100 * 10**6
        )
        assert plan_liquidations({"aave": market}, oracle, tokens) == []
