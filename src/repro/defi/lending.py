"""Collateralized lending with oracle-driven liquidations (Aave style).

Borrowers post collateral in one token against debt in another.  A position
whose health factor drops below 1 (the oracle moved against it) can be
liquidated: the liquidator repays the debt and seizes the collateral plus a
bonus, emitting a ``LiquidationCall`` log — the evidence the paper's
liquidation detector reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..cow import CowDict
from ..chain.receipts import Log, liquidation_log
from ..errors import DefiError, LiquidationError
from ..types import Address, derive_address
from .oracle import PriceOracle
from .tokens import TokenRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chain.exec_cache import ReadLog

DEFAULT_LIQUIDATION_THRESHOLD = 0.85
DEFAULT_LIQUIDATION_BONUS = 0.10
#: Prefix of the execution cache's read/write domain for one market's
#: positions (``"p:<market_id>"``), keyed by borrower.
POSITION_DOMAIN_PREFIX = "p:"


@dataclass(frozen=True)
class Position:
    """One borrower's collateralized debt position."""

    borrower: Address
    collateral_token: str
    collateral_amount: int
    debt_token: str
    debt_amount: int


class LendingMarket:
    """A lending market with forkable positions."""

    def __init__(
        self,
        market_id: str,
        tokens: TokenRegistry,
        liquidation_threshold: float = DEFAULT_LIQUIDATION_THRESHOLD,
        liquidation_bonus: float = DEFAULT_LIQUIDATION_BONUS,
    ) -> None:
        if not 0 < liquidation_threshold <= 1:
            raise DefiError(f"invalid liquidation threshold {liquidation_threshold}")
        if liquidation_bonus < 0:
            raise DefiError(f"negative liquidation bonus {liquidation_bonus}")
        self.market_id = market_id
        self.address = derive_address("lending", market_id)
        self.liquidation_threshold = liquidation_threshold
        self.liquidation_bonus = liquidation_bonus
        self._tokens = tokens
        self._positions: CowDict[Address, Position] = CowDict()
        self._parent: LendingMarket | None = None

    # -- positions -------------------------------------------------------

    def open_position(
        self,
        borrower: Address,
        collateral_token: str,
        collateral_amount: int,
        debt_token: str,
        debt_amount: int,
    ) -> Position:
        """Open a position; collateral is escrowed at the market address.

        The borrowed tokens are minted to the borrower (we do not model the
        supply side of the market — irrelevant to MEV measurement).
        """
        if borrower in self._positions:
            raise DefiError(f"{borrower} already has a position on {self.market_id}")
        if collateral_amount <= 0 or debt_amount <= 0:
            raise DefiError("collateral and debt must be positive")
        position = Position(
            borrower=borrower,
            collateral_token=collateral_token,
            collateral_amount=collateral_amount,
            debt_token=debt_token,
            debt_amount=debt_amount,
        )
        self._positions[borrower] = position
        self._tokens.mint(collateral_token, self.address, collateral_amount)
        self._tokens.mint(debt_token, borrower, debt_amount)
        return position

    def position(self, borrower: Address) -> Position:
        try:
            return self._positions[borrower]
        except KeyError:
            raise DefiError(
                f"{borrower} has no position on {self.market_id}"
            ) from None

    def positions(self) -> list[Position]:
        return [self._positions[key] for key in sorted(self._positions.keys())]

    # -- health ------------------------------------------------------------

    def health_factor(self, borrower: Address, oracle: PriceOracle) -> float:
        """Collateral value x threshold over debt value; < 1 is liquidatable."""
        position = self.position(borrower)
        collateral_value = oracle.value_in_eth(
            position.collateral_token,
            position.collateral_amount,
            decimals=self._tokens.token(position.collateral_token).decimals,
        )
        debt_value = oracle.value_in_eth(
            position.debt_token,
            position.debt_amount,
            decimals=self._tokens.token(position.debt_token).decimals,
        )
        if debt_value == 0:
            return float("inf")
        return collateral_value * self.liquidation_threshold / debt_value

    def liquidatable(self, oracle: PriceOracle) -> list[Position]:
        """All positions whose health factor has dropped below 1."""
        return [
            position
            for position in self.positions()
            if self.health_factor(position.borrower, oracle) < 1.0
        ]

    # -- liquidation -----------------------------------------------------

    def liquidate(
        self,
        liquidator: Address,
        borrower: Address,
        oracle: PriceOracle,
        tokens: TokenRegistry,
    ) -> tuple[int, list[Log]]:
        """Fully liquidate a position; returns (collateral_seized, logs).

        The liquidator repays the full debt from their own token balance and
        seizes collateral worth debt x (1 + bonus), capped at the posted
        collateral.
        """
        if borrower not in self._positions:
            raise LiquidationError(
                f"{borrower} has no position on {self.market_id}"
            )
        if self.health_factor(borrower, oracle) >= 1.0:
            raise LiquidationError(f"position of {borrower} is healthy")
        position = self._positions[borrower]

        debt_decimals = tokens.token(position.debt_token).decimals
        collateral_decimals = tokens.token(position.collateral_token).decimals
        debt_value_eth = oracle.value_in_eth(
            position.debt_token, position.debt_amount, decimals=debt_decimals
        )
        collateral_price_eth = oracle.price_in_eth(position.collateral_token)
        seize_whole_tokens = (
            debt_value_eth * (1.0 + self.liquidation_bonus) / collateral_price_eth
        )
        seized = min(
            int(seize_whole_tokens * 10**collateral_decimals),
            position.collateral_amount,
        )

        logs = [
            tokens.transfer(
                position.debt_token, liquidator, self.address, position.debt_amount
            ),
            tokens.transfer(
                position.collateral_token, self.address, liquidator, seized
            ),
            liquidation_log(
                self.address,
                liquidator,
                borrower,
                position.debt_token,
                position.debt_amount,
                position.collateral_token,
                seized,
            ),
        ]
        del self._positions[borrower]
        return seized, logs

    # -- forking -----------------------------------------------------------

    def fork(
        self, tokens: TokenRegistry, log: "ReadLog | None" = None
    ) -> "LendingMarket":
        """Fork positions; given a read log, the fork records its reads."""
        # Bypass __init__: the market address is already derived and the
        # thresholds already validated, and forks happen once per builder
        # per slot, which made re-deriving the address a measured hotspot.
        child = LendingMarket.__new__(LendingMarket)
        child.market_id = self.market_id
        child.address = self.address
        child.liquidation_threshold = self.liquidation_threshold
        child.liquidation_bonus = self.liquidation_bonus
        child._tokens = tokens
        child._positions = self._positions.fork(
            log, POSITION_DOMAIN_PREFIX + self.market_id
        )
        child._parent = self
        return child

    def commit(self) -> None:
        if self._parent is None:
            raise DefiError("cannot commit a root LendingMarket")
        self._positions.commit()
