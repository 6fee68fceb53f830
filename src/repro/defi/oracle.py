"""Price oracle with event-driven shocks.

Prices follow a seeded geometric random walk; scenario events (the FTX
bankruptcy, the USDC depeg) inject volatility spikes and level shocks.
Lending positions become liquidatable when the oracle moves against them —
the time-sensitive mechanism the paper cites for why liquidations appear in
both PBS and non-PBS blocks.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import DefiError


class PriceOracle:
    """USD prices per asset symbol, advanced once per simulated day."""

    def __init__(self, initial_prices_usd: dict[str, float]) -> None:
        for symbol, price in initial_prices_usd.items():
            if price <= 0:
                raise DefiError(f"non-positive initial price for {symbol}")
        self._prices = dict(initial_prices_usd)

    def price_usd(self, symbol: str) -> float:
        try:
            return self._prices[symbol]
        except KeyError:
            raise DefiError(f"oracle has no price for {symbol}") from None

    def price_in_eth(self, symbol: str) -> float:
        """Price of one whole token in ETH."""
        return self.price_usd(symbol) / self.price_usd("ETH")

    def value_in_eth(self, symbol: str, amount: int, decimals: int = 18) -> float:
        """ETH value of ``amount`` base units of a token."""
        return (amount / 10**decimals) * self.price_in_eth(symbol)

    def set_price(self, symbol: str, price_usd: float) -> None:
        """Force a price level (used by event shocks such as the USDC depeg)."""
        if price_usd <= 0:
            raise DefiError(f"non-positive price for {symbol}")
        self._prices[symbol] = price_usd

    def advance_day(
        self,
        rng: np.random.Generator,
        volatility: float = 0.03,
        volatility_multipliers: dict[str, float] | None = None,
    ) -> None:
        """Advance every price one day along a driftless geometric random walk.

        ``volatility_multipliers`` lets scenario events make specific assets
        (or all, via the ``"*"`` key) more volatile on crisis days.
        """
        multipliers = volatility_multipliers or {}
        base_multiplier = multipliers.get("*", 1.0)
        for symbol in list(self._prices):
            sigma = volatility * base_multiplier * multipliers.get(symbol, 1.0)
            shock = rng.normal(loc=-sigma * sigma / 2.0, scale=sigma)
            self._prices[symbol] *= math.exp(shock)
