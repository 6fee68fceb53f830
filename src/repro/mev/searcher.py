"""Searcher agents.

Searchers watch a slot's state (mempool, pools, lending markets, oracle),
plan MEV opportunities, and emit bundles bidding for inclusion through
coinbase tips.  Their skill parameter models how professionalized they are
— which opportunities they spot — and their bid fraction models the
competitiveness of the builder market they sell into.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, TypeVar

import numpy as np

from ..chain.state import WorldState
from ..chain.transaction import (
    LiquidatePosition,
    SwapExact,
    TipCoinbase,
    Transaction,
    TransactionFactory,
)
from ..defi.amm import AmmExchange
from ..defi.lending import LendingMarket
from ..defi.oracle import PriceOracle
from ..defi.tokens import TokenRegistry
from ..types import Address, Wei, gwei
from .arbitrage import find_arbitrage_cycles, plan_cycle_arbitrage
from .bundles import (
    Bundle,
    KIND_ARBITRAGE,
    KIND_LIQUIDATION,
    KIND_SANDWICH,
    make_bundle,
)
from .liquidation import plan_liquidations
from .sandwich import plan_sandwich

_PRIORITY_FEE = gwei(1)
# Thresholds every searcher of a kind shares, so the slot's shared plans
# are keyed without them.
_MIN_VICTIM_AMOUNT = 10**18  # wei of WETH a victim swap must sell
_MIN_PROFIT_WEI: Wei = 10**15
_MAX_ARBITRAGE_BUNDLES_PER_SLOT = 3
_MIN_LIQUIDATION_BONUS_WEI: Wei = 10**15

_Plan = TypeVar("_Plan")


@dataclass
class SlotView:
    """Read-only view of the world a searcher sees while planning a slot."""

    slot: int
    base_fee: Wei
    state: WorldState
    amm: AmmExchange
    markets: dict[str, LendingMarket]
    oracle: PriceOracle
    tokens: TokenRegistry
    mempool_txs: list[Transaction]
    rng: np.random.Generator
    tx_factory: TransactionFactory
    # Local nonce allocation on top of the canonical state, so a searcher
    # can craft several transactions per slot without colliding.
    _nonce_offsets: dict[Address, int] = field(default_factory=dict)
    # Plans shared by every searcher planning this slot, keyed by what each
    # plan depends on beyond the slot itself.  Reserves, balances, the
    # mempool and the oracle do not change while searchers plan a slot, so
    # a plan computed for one searcher is exactly the plan any other
    # searcher with the same key would compute.
    _plan_cache: dict = field(default_factory=dict)

    def next_nonce(self, address: Address) -> int:
        offset = self._nonce_offsets.get(address, 0)
        self._nonce_offsets[address] = offset + 1
        return self.state.nonce_of(address) + offset

    def max_fee(self) -> Wei:
        return self.base_fee * 2 + _PRIORITY_FEE

    def plan_once(
        self, key: Hashable, plan: Callable[..., _Plan], *args: Any, **kwargs: Any
    ) -> _Plan:
        """``plan(*args, **kwargs)``, run on the slot's first request for ``key``.

        Later requests in the same slot, from any searcher, get the first
        result, ``None`` included.
        """
        try:
            return self._plan_cache[key]
        except KeyError:
            result = self._plan_cache[key] = plan(*args, **kwargs)
            return result


class Searcher:
    """Base searcher: identity, funding targets, and bidding behaviour."""

    def __init__(
        self,
        name: str,
        address: Address,
        skill: float = 0.8,
        bid_fraction: float = 0.85,
    ) -> None:
        if not 0.0 <= skill <= 1.0:
            raise ValueError(f"skill must be in [0, 1], got {skill}")
        if not 0.0 <= bid_fraction <= 1.0:
            raise ValueError(f"bid fraction must be in [0, 1], got {bid_fraction}")
        self.name = name
        self.address = address
        self.skill = skill
        self.bid_fraction = bid_fraction

    def find_bundles(self, view: SlotView) -> list[Bundle]:
        """Plan this slot's opportunities; overridden per searcher type."""
        raise NotImplementedError

    def _spots(self, view: SlotView) -> bool:
        """Whether this searcher notices a given opportunity (skill gate)."""
        return bool(view.rng.random() < self.skill)

    def _bid_for(self, profit_wei: Wei) -> Wei:
        return max(0, int(profit_wei * self.bid_fraction))


class SandwichSearcher(Searcher):
    """Front- and back-runs large victim swaps spotted in the mempool."""

    def find_bundles(self, view: SlotView) -> list[Bundle]:
        bundles: list[Bundle] = []
        victims = view.plan_once(
            ("sandwich-victims",), _sandwich_victims, view.mempool_txs
        )
        for victim_tx, swap in victims:
            if not self._spots(view):
                continue
            plan = view.plan_once(
                ("sandwich", victim_tx.tx_hash),
                plan_sandwich,
                view.amm.pool(swap.pool_id),
                swap.amount_in,
                swap.min_amount_out,
                swap.token_in,
                min_profit=_MIN_PROFIT_WEI,
            )
            if plan is None:
                continue
            bid = self._bid_for(plan.profit)
            front = view.tx_factory.create(
                self.address,
                view.next_nonce(self.address),
                [
                    SwapExact(
                        plan.pool_id,
                        plan.token_in,
                        plan.front_amount_in,
                        plan.front_amount_out,
                    )
                ],
                view.max_fee(),
                _PRIORITY_FEE,
            )
            back = view.tx_factory.create(
                self.address,
                view.next_nonce(self.address),
                [
                    SwapExact(
                        plan.pool_id,
                        plan.token_out,
                        plan.front_amount_out,
                        # Require at least break-even plus the bid.
                        plan.front_amount_in,
                    ),
                    TipCoinbase(bid),
                ],
                view.max_fee(),
                _PRIORITY_FEE,
            )
            bundles.append(
                make_bundle(
                    self.name,
                    [front, victim_tx, back],
                    KIND_SANDWICH,
                    expected_profit_wei=plan.profit,
                    bid_wei=bid,
                    conflict_key=f"sandwich:{victim_tx.tx_hash}",
                )
            )
        return bundles


class ArbitrageSearcher(Searcher):
    """Exploits cross-pool price discrepancies with cyclic swaps."""

    def __init__(self, name: str, address: Address, **kwargs) -> None:
        super().__init__(name, address, **kwargs)
        self._cycles: list[tuple[str, ...]] | None = None

    def find_bundles(self, view: SlotView) -> list[Bundle]:
        if self._cycles is None:
            self._cycles = find_arbitrage_cycles(view.amm)
        budget = view.tokens.balance_of("WETH", self.address)
        if budget <= 0:
            return []
        plans = []
        for cycle in self._cycles:
            if not self._spots(view):
                continue
            plan = view.plan_once(
                ("arbitrage", cycle, budget),
                plan_cycle_arbitrage,
                view.amm,
                cycle,
                max_input=budget,
                min_profit=_MIN_PROFIT_WEI,
            )
            if plan is not None:
                plans.append(plan)
        plans.sort(key=lambda plan: plan.profit, reverse=True)

        bundles: list[Bundle] = []
        for plan in plans[:_MAX_ARBITRAGE_BUNDLES_PER_SLOT]:
            bid = self._bid_for(plan.profit)
            actions = [
                SwapExact(pool_id, token_in, amount_in, amount_out)
                for pool_id, token_in, amount_in, amount_out in plan.hops
            ]
            actions.append(TipCoinbase(bid))
            tx = view.tx_factory.create(
                self.address,
                view.next_nonce(self.address),
                actions,
                view.max_fee(),
                _PRIORITY_FEE,
            )
            cycle_key = "->".join(hop[0] for hop in plan.hops)
            bundles.append(
                make_bundle(
                    self.name,
                    [tx],
                    KIND_ARBITRAGE,
                    expected_profit_wei=plan.profit,
                    bid_wei=bid,
                    conflict_key=f"arb:{cycle_key}",
                )
            )
        return bundles


class LiquidationSearcher(Searcher):
    """Liquidates undercollateralized lending positions."""

    def find_bundles(self, view: SlotView) -> list[Bundle]:
        bundles: list[Bundle] = []
        plans = view.plan_once(
            ("liquidations",),
            plan_liquidations,
            view.markets,
            view.oracle,
            view.tokens,
            min_bonus_wei=_MIN_LIQUIDATION_BONUS_WEI,
        )
        for plan in plans:
            if not self._spots(view):
                continue
            balance = view.tokens.balance_of(plan.debt_token, self.address)
            if balance < plan.debt_amount:
                continue  # cannot fund the repayment
            bid = self._bid_for(plan.expected_bonus_wei)
            tx = view.tx_factory.create(
                self.address,
                view.next_nonce(self.address),
                [
                    LiquidatePosition(plan.market_id, plan.borrower),
                    TipCoinbase(bid),
                ],
                view.max_fee(),
                _PRIORITY_FEE,
            )
            bundles.append(
                make_bundle(
                    self.name,
                    [tx],
                    KIND_LIQUIDATION,
                    expected_profit_wei=plan.expected_bonus_wei,
                    bid_wei=bid,
                    conflict_key=f"liq:{plan.market_id}:{plan.borrower}",
                )
            )
        return bundles


def _sandwich_victims(txs: list[Transaction]) -> list[tuple[Transaction, SwapExact]]:
    """Single-swap transactions selling at least 1 WETH, in mempool order."""
    victims = []
    for tx in txs:
        swap = _single_swap_action(tx)
        if (
            swap is None
            or swap.token_in != "WETH"
            or swap.amount_in < _MIN_VICTIM_AMOUNT
        ):
            continue
        victims.append((tx, swap))
    return victims


def _single_swap_action(tx: Transaction) -> SwapExact | None:
    """The transaction's swap, if it is a plain single-swap transaction."""
    swaps = [action for action in tx.actions if isinstance(action, SwapExact)]
    if len(swaps) != 1:
        return None
    return swaps[0]
