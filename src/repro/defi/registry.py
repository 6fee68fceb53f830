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

from ..chain.receipts import Log
from ..chain.state import WorldState
from ..chain.traces import CallFrame
from ..chain.transaction import LiquidatePosition, SwapExact, TokenTransfer
from ..cow import CowDict
from ..cow import _TOMBSTONE as _COW_TOMBSTONE
from ..errors import DefiError
from ..types import Address
from .amm import AmmExchange
from .lending import LendingMarket
from .oracle import PriceOracle
from .tokens import TokenRegistry

_MISSING = object()


def _execute_action(
    registry: "DefiProtocols | LazyDefiFork",
    action: object,
    sender: Address,
) -> tuple[list[Log], list[CallFrame]]:
    """Shared action dispatch for every registry flavour.

    Token movements do not move ETH, so no trace frames are produced —
    matching mainnet, where sanctioned ERC-20 activity is visible only
    in logs (which is why the paper scans both logs and traces).
    """
    if isinstance(action, TokenTransfer):
        log = registry.tokens.transfer(
            action.token, sender, action.recipient, action.amount
        )
        return [log], []
    if isinstance(action, SwapExact):
        _, logs = registry.amm.swap(
            action.pool_id,
            sender,
            action.token_in,
            action.amount_in,
            action.min_amount_out,
            registry.tokens,
        )
        return logs, []
    if isinstance(action, LiquidatePosition):
        market = registry.market(action.market_id)
        if market is None:
            raise DefiError(f"unknown lending market {action.market_id}")
        _, logs = market.liquidate(
            sender, action.borrower, registry.oracle, registry.tokens
        )
        return logs, []
    raise DefiError(f"no protocol can execute {type(action).__name__}")


def _read_effective(registry, domain: str, key: object) -> object:
    """Current value for a cached read-set entry (None when absent).

    Domains mirror :mod:`repro.chain.exec_cache`: ``"t"`` token balances
    keyed by ``(symbol, holder)``, ``"r"`` AMM reserves keyed by pool id,
    ``"p:<market>"`` lending positions keyed by borrower.
    """
    if domain == "t":
        view: CowDict = registry.balances_view()
    elif domain == "r":
        view = registry.reserves_view()
    elif domain.startswith("p:"):
        positions = registry.positions_view(domain[2:])
        if positions is None:
            return None
        view = positions
    else:
        raise DefiError(f"unknown read domain {domain!r}")
    value = view.get(key, _MISSING)
    return None if value is _MISSING else value


def _apply_writes(registry, writes) -> None:
    """Write a cached variant's effects into this registry's local layers.

    ``value is None`` encodes a deletion; the tombstone lands in the same
    layer a committed speculative fork would have left it in, keeping
    replayed state bit-identical to direct execution.  Replaying a variant
    applies every write of a transaction in one call, so the target
    CowDict is resolved once per domain, not once per entry.
    """
    token_cow: CowDict | None = None
    reserve_cow: CowDict | None = None
    market_cows: dict[str, CowDict] | None = None
    for domain, key, value in writes:
        if domain == "t":
            cow = token_cow
            if cow is None:
                cow = token_cow = registry.tokens._balances
        elif domain == "r":
            cow = reserve_cow
            if cow is None:
                cow = reserve_cow = registry.amm._reserves
        elif domain.startswith("p:"):
            if market_cows is None:
                market_cows = {}
            cow = market_cows.get(domain)
            if cow is None:
                market = registry.market(domain[2:])
                if market is None:
                    raise DefiError(f"unknown lending market {domain[2:]}")
                cow = market_cows[domain] = market._positions
        else:
            raise DefiError(f"unknown write domain {domain!r}")
        cow._local[key] = _COW_TOMBSTONE if value is None else value


class DefiProtocols:
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

    # -- engine interface --------------------------------------------------

    def execute_action(
        self,
        action: object,
        sender: Address,
        state: WorldState,
    ) -> tuple[list[Log], list[CallFrame]]:
        """Apply one protocol action; returns (logs, trace frames)."""
        return _execute_action(self, action, sender)

    # -- forking -----------------------------------------------------------

    def fork(self) -> "LazyDefiFork":
        return LazyDefiFork(parent=self)

    def commit(self) -> None:
        raise DefiError("cannot commit a root DefiProtocols")

    # -- execution-cache hooks (see repro.chain.exec_cache) ----------------

    def balances_view(self) -> CowDict:
        return self.tokens._balances

    def reserves_view(self) -> CowDict:
        return self.amm._reserves

    def positions_view(self, market_id: str) -> CowDict | None:
        market = self.markets.get(market_id)
        return None if market is None else market._positions

    def token_specs(self) -> dict:
        return self.tokens._tokens

    def pool_specs(self) -> dict:
        return self.amm._specs

    def market_meta(self, market_id: str) -> LendingMarket | None:
        return self.markets.get(market_id)

    def read_effective(self, domain: str, key: object) -> object:
        return _read_effective(self, domain, key)

    def apply_writes(self, writes) -> None:
        _apply_writes(self, writes)

    def recording_fork(self, log):
        from .recording import RecordingDefiProtocols

        return RecordingDefiProtocols(parent=self, log=log)


class LazyDefiFork:
    """A copy-on-write fork of the DeFi substrate, materialized on demand.

    Satisfies the same :class:`~repro.chain.execution.ProtocolRegistry`
    interface as :class:`DefiProtocols`.  Components fork from the parent
    on first touch; :meth:`commit` merges back only what materialized, so
    a speculative block that never swaps a token costs nothing here.
    """

    __slots__ = ("_parent", "oracle", "_tokens", "_amm", "_markets")

    def __init__(self, parent) -> None:
        self._parent = parent
        self.oracle = parent.oracle
        self._tokens: TokenRegistry | None = None
        self._amm: AmmExchange | None = None
        self._markets: dict[str, LendingMarket] = {}

    # -- lazily materialized components ------------------------------------

    @property
    def tokens(self) -> TokenRegistry:
        if self._tokens is None:
            self._tokens = self._parent.tokens.fork()
        return self._tokens

    @property
    def amm(self) -> AmmExchange:
        if self._amm is None:
            self._amm = self._parent.amm.fork(self.tokens)
        return self._amm

    def market(self, market_id: str) -> LendingMarket | None:
        market = self._markets.get(market_id)
        if market is None:
            base = self._parent.market(market_id)
            if base is None:
                return None
            market = base.fork(self.tokens)
            self._markets[market_id] = market
        return market

    # -- engine interface --------------------------------------------------

    def execute_action(
        self,
        action: object,
        sender: Address,
        state: WorldState,
    ) -> tuple[list[Log], list[CallFrame]]:
        return _execute_action(self, action, sender)

    def fork(self) -> "LazyDefiFork":
        return LazyDefiFork(parent=self)

    def commit(self) -> None:
        if self._tokens is not None:
            self._tokens.commit()
        if self._amm is not None:
            self._amm.commit()
        for market in self._markets.values():
            market.commit()

    # -- execution-cache hooks ---------------------------------------------

    def balances_view(self) -> CowDict:
        if self._tokens is not None:
            return self._tokens._balances
        return self._parent.balances_view()

    def reserves_view(self) -> CowDict:
        if self._amm is not None:
            return self._amm._reserves
        return self._parent.reserves_view()

    def positions_view(self, market_id: str) -> CowDict | None:
        market = self._markets.get(market_id)
        if market is not None:
            return market._positions
        return self._parent.positions_view(market_id)

    def token_specs(self) -> dict:
        return self._parent.token_specs()

    def pool_specs(self) -> dict:
        return self._parent.pool_specs()

    def market_meta(self, market_id: str) -> LendingMarket | None:
        market = self._markets.get(market_id)
        if market is not None:
            return market
        return self._parent.market_meta(market_id)

    def read_effective(self, domain: str, key: object) -> object:
        return _read_effective(self, domain, key)

    def apply_writes(self, writes) -> None:
        _apply_writes(self, writes)

    def recording_fork(self, log):
        from .recording import RecordingDefiProtocols

        return RecordingDefiProtocols(parent=self, log=log)
