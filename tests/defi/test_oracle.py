"""Unit tests for the price oracle."""

import numpy as np
import pytest

from repro.defi.oracle import PriceOracle
from repro.errors import DefiError


@pytest.fixture
def oracle():
    return PriceOracle({"ETH": 1500.0, "WETH": 1500.0, "USDC": 1.0})


class TestPrices:
    def test_read(self, oracle):
        assert oracle.price_usd("ETH") == 1500.0

    def test_unknown_symbol(self, oracle):
        with pytest.raises(DefiError):
            oracle.price_usd("NOPE")

    def test_price_in_eth(self, oracle):
        assert oracle.price_in_eth("USDC") == pytest.approx(1 / 1500.0)
        assert oracle.price_in_eth("WETH") == pytest.approx(1.0)

    def test_value_in_eth_uses_decimals(self, oracle):
        # 1500 USDC (6 decimals) is one ETH.
        assert oracle.value_in_eth("USDC", 1_500 * 10**6, decimals=6) == (
            pytest.approx(1.0)
        )

    def test_set_price(self, oracle):
        oracle.set_price("USDC", 0.9)
        assert oracle.price_usd("USDC") == 0.9

    def test_non_positive_rejected(self, oracle):
        with pytest.raises(DefiError):
            oracle.set_price("USDC", 0.0)
        with pytest.raises(DefiError):
            PriceOracle({"ETH": -1.0})


class TestRandomWalk:
    def test_advance_changes_prices(self, oracle):
        rng = np.random.default_rng(1)
        before = oracle.price_usd("ETH")
        oracle.advance_day(rng, volatility=0.05)
        assert oracle.price_usd("ETH") != before
        assert oracle.price_usd("ETH") > 0

    def test_deterministic_given_seed(self):
        a = PriceOracle({"ETH": 1500.0})
        b = PriceOracle({"ETH": 1500.0})
        a.advance_day(np.random.default_rng(42))
        b.advance_day(np.random.default_rng(42))
        assert a.price_usd("ETH") == b.price_usd("ETH")

    def test_volatility_multipliers_scale_moves(self, oracle):
        calm = PriceOracle({"ETH": 1500.0})
        wild = PriceOracle({"ETH": 1500.0})
        moves_calm, moves_wild = [], []
        for seed in range(30):
            calm2 = PriceOracle({"ETH": 1500.0})
            wild2 = PriceOracle({"ETH": 1500.0})
            calm2.advance_day(np.random.default_rng(seed), volatility=0.02)
            wild2.advance_day(
                np.random.default_rng(seed),
                volatility=0.02,
                volatility_multipliers={"*": 5.0},
            )
            moves_calm.append(abs(np.log(calm2.price_usd("ETH") / 1500.0)))
            moves_wild.append(abs(np.log(wild2.price_usd("ETH") / 1500.0)))
        assert np.mean(moves_wild) > np.mean(moves_calm)

    def test_specific_symbol_multiplier(self):
        oracle = PriceOracle({"ETH": 1500.0, "USDC": 1.0})
        rng = np.random.default_rng(7)
        oracle.advance_day(
            rng, volatility=0.01, volatility_multipliers={"USDC": 10.0}
        )
        eth_move = abs(np.log(oracle.price_usd("ETH") / 1500.0))
        usdc_move = abs(np.log(oracle.price_usd("USDC") / 1.0))
        assert usdc_move > eth_move
