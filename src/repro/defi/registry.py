"""The protocol registry wiring DeFi into the execution engine.

Implements the :class:`~repro.chain.execution.ProtocolRegistry` interface:
the engine hands protocol actions (token transfers, swaps, liquidations)
here, and gets back event logs plus trace frames.

Forking is *lazy*: a fork materializes a component (token ledger, AMM
reserves, a lending market's positions) only when an action first touches
it, so the per-transaction speculative fork an execution context takes is
O(1) instead of O(components).  Pure-ETH transactions never touch the
DeFi substrate at all.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..chain.receipts import Log
from ..chain.state import WorldState
from ..chain.traces import CallFrame
from ..chain.transaction import LiquidatePosition, SwapExact, TokenTransfer
from ..cow import CowDict
from ..errors import DefiError
from ..types import Address
from .amm import RESERVE_DOMAIN, AmmExchange
from .lending import POSITION_DOMAIN_PREFIX, LendingMarket
from .oracle import PriceOracle
from .tokens import BALANCE_DOMAIN, TokenRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chain.exec_cache import ReadLog


class _Registry:
    """What the root registry and its lazy forks share.

    Action dispatch, forking, and the execution cache's hooks: a cached
    read or write names its layer by domain (``BALANCE_DOMAIN``,
    ``RESERVE_DOMAIN`` or ``POSITION_DOMAIN_PREFIX`` plus a market id),
    and :meth:`_layer` resolves a domain to this registry's layer.
    Subclasses provide ``tokens``, ``amm``, ``oracle`` and ``market()``.
    """

    __slots__ = ()

    tokens: TokenRegistry
    amm: AmmExchange
    oracle: PriceOracle

    def execute_action(
        self,
        action: object,
        sender: Address,
        state: WorldState,
    ) -> tuple[list[Log], list[CallFrame]]:
        """Apply one protocol action; returns (logs, trace frames).

        Token movements do not move ETH, so no trace frames are produced —
        matching mainnet, where sanctioned ERC-20 activity is visible only
        in logs (which is why the paper scans both logs and traces).
        """
        if isinstance(action, TokenTransfer):
            log = self.tokens.transfer(
                action.token, sender, action.recipient, action.amount
            )
            return [log], []
        if isinstance(action, SwapExact):
            _, logs = self.amm.swap(
                action.pool_id,
                sender,
                action.token_in,
                action.amount_in,
                action.min_amount_out,
                self.tokens,
            )
            return logs, []
        if isinstance(action, LiquidatePosition):
            market = self.market(action.market_id)
            if market is None:
                raise DefiError(f"unknown lending market {action.market_id}")
            _, logs = market.liquidate(
                sender, action.borrower, self.oracle, self.tokens
            )
            return logs, []
        raise DefiError(f"no protocol can execute {type(action).__name__}")

    # -- forking -----------------------------------------------------------

    def fork(self, log: "ReadLog | None" = None) -> "LazyDefiFork":
        """A lazy fork; given a read log, its components log escaping reads."""
        return LazyDefiFork(self, log)

    # -- execution-cache hooks (see repro.chain.exec_cache) ----------------

    def _layer(self, domain: str) -> CowDict:
        if domain == BALANCE_DOMAIN:
            return self.tokens._balances
        if domain == RESERVE_DOMAIN:
            return self.amm._reserves
        # Domains come from recorded reads and markets are never removed.
        return self.market(domain[len(POSITION_DOMAIN_PREFIX):])._positions  # type: ignore[union-attr]

    def read_effective(self, domain: str, key: object) -> object:
        """Current value for a cached read-set entry (None when absent)."""
        return self._layer(domain).get(key)

    def apply_writes(self, writes) -> None:
        """Write a cached variant's effects into this registry's layers.

        ``writes`` holds one ``(domain, pairs)`` entry per written layer,
        as :meth:`LazyDefiFork.extract_writes` took them, so each layer is
        resolved and stored once.  ``value is None`` encodes a deletion; the
        tombstone lands in the same layer a committed speculative fork would
        have left it in, keeping replayed state bit-identical to direct
        execution.
        """
        for domain, pairs in writes:
            self._layer(domain).store(pairs)


class DefiProtocols(_Registry):
    """Token registry + AMM + lending markets behind one engine-facing API.

    Always the root of a fork tree: speculative children are
    :class:`LazyDefiFork` overlays, which commit into it.
    """

    def __init__(
        self,
        tokens: TokenRegistry,
        amm: AmmExchange,
        markets: dict[str, LendingMarket],
        oracle: PriceOracle,
    ) -> None:
        self.tokens = tokens
        self.amm = amm
        self.markets = markets
        self.oracle = oracle  # read-only within a block; never forked

    @classmethod
    def create(cls, oracle: PriceOracle) -> "DefiProtocols":
        """Create an empty root registry around an oracle."""
        tokens = TokenRegistry()
        amm = AmmExchange(tokens)
        return cls(tokens=tokens, amm=amm, markets={}, oracle=oracle)

    def add_market(self, market: LendingMarket) -> None:
        if market.market_id in self.markets:
            raise DefiError(f"market {market.market_id} already registered")
        self.markets[market.market_id] = market

    def market(self, market_id: str) -> LendingMarket | None:
        return self.markets.get(market_id)

    def commit(self) -> None:
        raise DefiError("cannot commit a root DefiProtocols")


class LazyDefiFork(_Registry):
    """A copy-on-write fork of the DeFi substrate, materialized on demand.

    Satisfies the same :class:`~repro.chain.execution.ProtocolRegistry`
    interface as :class:`DefiProtocols`.  Components fork from the parent
    on first touch; :meth:`commit` merges back only what materialized, so
    a speculative block that never swaps a token costs nothing here.

    Given the execution cache's read log, the fork is the cache's
    recording overlay: each component forks as a
    :class:`~repro.cow.RecordingCowDict` layer that logs the reads
    escaping it, and the fork is never committed — the cache takes its
    layers' local entries as the write set (:meth:`extract_writes`).
    """

    __slots__ = ("_parent", "_log", "oracle", "_tokens", "_amm", "_markets")

    def __init__(self, parent: _Registry, log: "ReadLog | None" = None) -> None:
        self._parent = parent
        self._log = log
        self.oracle = parent.oracle
        self._tokens: TokenRegistry | None = None
        self._amm: AmmExchange | None = None
        self._markets: dict[str, LendingMarket] = {}

    # -- lazily materialized components ------------------------------------

    @property
    def tokens(self) -> TokenRegistry:
        if self._tokens is None:
            self._tokens = self._parent.tokens.fork(self._log)
        return self._tokens

    @property
    def amm(self) -> AmmExchange:
        if self._amm is None:
            self._amm = self._parent.amm.fork(self.tokens, self._log)
        return self._amm

    def market(self, market_id: str) -> LendingMarket | None:
        market = self._markets.get(market_id)
        if market is None:
            base = self._parent.market(market_id)
            if base is None:
                return None
            market = base.fork(self.tokens, self._log)
            self._markets[market_id] = market
        return market

    def commit(self) -> None:
        if self._log is not None:
            raise DefiError("a recording fork is never committed")
        if self._tokens is not None:
            self._tokens.commit()
        if self._amm is not None:
            self._amm.commit()
        for market in self._markets.values():
            market.commit()

    def extract_writes(self) -> list[tuple[str, list[tuple[object, object]]]]:
        """A recording fork's writes as ``(domain, pairs)`` per written layer.

        In token → reserve → market order, each layer's ``(key,
        value-or-None)`` pairs in the order they were first written.
        """
        layers = []
        if self._tokens is not None:
            layers.append(self._tokens._balances)
        if self._amm is not None:
            layers.append(self._amm._reserves)
        layers.extend(market._positions for market in self._markets.values())
        return [(layer.domain, pairs) for layer in layers if (pairs := layer.writes())]
