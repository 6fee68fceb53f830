"""Constant-product AMM pools (Uniswap-V2 style).

Pools hold two tokens, charge a basis-point fee on input, and emit
``Transfer``/``Swap``/``Sync`` logs exactly like mainnet pairs, so
sandwich and arbitrage detection work off the same evidence the paper's
scripts use.  Reserves live in a copy-on-write map for cheap speculative
execution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..cow import CowDict
from ..chain.receipts import Log, swap_log, sync_log
from ..errors import DefiError, SwapError
from ..types import Address, derive_address
from .tokens import TokenRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chain.exec_cache import ReadLog

DEFAULT_FEE_BPS = 30  # Uniswap V2's 0.3%
#: The execution cache's read/write domain for reserves, keyed by pool id.
RESERVE_DOMAIN = "r"
_BPS = 10_000

# Last LiquidityPool snapshot built per pool id, shared across exchanges
# and forks.  Snapshots are frozen, so handing the same object to every
# caller that observes identical (spec, reserves) is safe; the spec
# identity check keeps simultaneous simulations from colliding.
_POOL_CACHE: dict[str, tuple[tuple[int, int], LiquidityPool, PoolSpec]] = {}


@dataclass(frozen=True)
class PoolSpec:
    """Immutable identity of a pool: tokens, address and fee tier."""

    pool_id: str
    address: Address
    token0: str
    token1: str
    fee_bps: int = DEFAULT_FEE_BPS


@dataclass(frozen=True)
class LiquidityPool:
    """Point-in-time snapshot of one pool (spec + reserves)."""

    spec: PoolSpec
    reserve0: int
    reserve1: int

    @property
    def pool_id(self) -> str:
        return self.spec.pool_id

    def reserves_for(self, token_in: str) -> tuple[int, int]:
        """(reserve_in, reserve_out) oriented for a swap of ``token_in``."""
        if token_in == self.spec.token0:
            return self.reserve0, self.reserve1
        if token_in == self.spec.token1:
            return self.reserve1, self.reserve0
        raise DefiError(f"{token_in} is not in pool {self.pool_id}")

    def other_token(self, token_in: str) -> str:
        if token_in == self.spec.token0:
            return self.spec.token1
        if token_in == self.spec.token1:
            return self.spec.token0
        raise DefiError(f"{token_in} is not in pool {self.pool_id}")

    def quote_out(self, token_in: str, amount_in: int) -> int:
        """Constant-product output for ``amount_in``, after the input fee."""
        if amount_in <= 0:
            raise SwapError(f"non-positive swap input {amount_in}")
        reserve_in, reserve_out = self.reserves_for(token_in)
        amount_in_with_fee = amount_in * (_BPS - self.spec.fee_bps)
        numerator = amount_in_with_fee * reserve_out
        denominator = reserve_in * _BPS + amount_in_with_fee
        return numerator // denominator

    def mid_price(self, of_token: str) -> float:
        """Marginal price of ``of_token`` in units of the other token."""
        reserve_this, reserve_other = self.reserves_for(of_token)
        if reserve_this == 0:
            raise DefiError(f"pool {self.pool_id} has empty reserves")
        return reserve_other / reserve_this


class AmmExchange:
    """All pools plus their (forkable) reserves."""

    def __init__(
        self,
        tokens: TokenRegistry,
        parent: "AmmExchange | None" = None,
        log: "ReadLog | None" = None,
    ):
        self._tokens = tokens
        if parent is None:
            self._specs: dict[str, PoolSpec] = {}
            self._reserves: CowDict[str, tuple[int, int]] = CowDict()
        else:
            self._specs = parent._specs
            self._reserves = parent._reserves.fork(log, RESERVE_DOMAIN)
        self._parent = parent

    # -- pool management -------------------------------------------------

    def register_pool(
        self,
        token0: str,
        token1: str,
        reserve0: int,
        reserve1: int,
        fee_bps: int = DEFAULT_FEE_BPS,
        pool_id: str | None = None,
    ) -> PoolSpec:
        """Deploy a pool and seed its reserves (minted to the pool address)."""
        if token0 == token1:
            raise DefiError("a pool needs two distinct tokens")
        if reserve0 <= 0 or reserve1 <= 0:
            raise DefiError("pool reserves must be positive")
        if not 0 <= fee_bps < _BPS:
            raise DefiError(f"invalid fee {fee_bps} bps")
        identifier = pool_id or f"{token0}-{token1}-{fee_bps}"
        if identifier in self._specs:
            raise DefiError(f"pool {identifier} already registered")
        spec = PoolSpec(
            pool_id=identifier,
            address=derive_address("pool", identifier),
            token0=token0,
            token1=token1,
            fee_bps=fee_bps,
        )
        self._specs[identifier] = spec
        self._reserves[identifier] = (reserve0, reserve1)
        self._tokens.mint(token0, spec.address, reserve0)
        self._tokens.mint(token1, spec.address, reserve1)
        return spec

    def pool(self, pool_id: str) -> LiquidityPool:
        try:
            spec = self._specs[pool_id]
        except KeyError:
            raise DefiError(f"unknown pool {pool_id}") from None
        # Read the reserves unconditionally so recording forks still log
        # the dependency even on a cache hit.
        reserves = self._reserves[pool_id]
        cached = _POOL_CACHE.get(pool_id)
        if (
            cached is not None
            and cached[0] == reserves
            and cached[2] is spec
        ):
            return cached[1]
        reserve0, reserve1 = reserves
        pool = LiquidityPool(spec=spec, reserve0=reserve0, reserve1=reserve1)
        _POOL_CACHE[pool_id] = (reserves, pool, spec)
        return pool

    def pool_ids(self) -> list[str]:
        return sorted(self._specs)

    def token_graph_edges(self) -> list[tuple[str, str, str]]:
        """(token_a, token_b, pool_id) edges for arbitrage cycle search."""
        return [
            (spec.token0, spec.token1, pool_id)
            for pool_id, spec in sorted(self._specs.items())
        ]

    # -- swapping --------------------------------------------------------

    def quote_out(self, pool_id: str, token_in: str, amount_in: int) -> int:
        return self.pool(pool_id).quote_out(token_in, amount_in)

    def swap(
        self,
        pool_id: str,
        sender: Address,
        token_in: str,
        amount_in: int,
        min_amount_out: int,
        tokens: TokenRegistry,
    ) -> tuple[int, list[Log]]:
        """Execute a swap; returns (amount_out, emitted logs).

        Raises :class:`SwapError` when the output falls below
        ``min_amount_out`` — the caller (execution engine) reverts the
        transaction, exactly like an on-chain slippage failure.
        """
        pool = self.pool(pool_id)
        token_out = pool.other_token(token_in)
        amount_out = pool.quote_out(token_in, amount_in)
        if amount_out < min_amount_out:
            raise SwapError(
                f"swap on {pool_id} returns {amount_out} < min {min_amount_out}"
            )
        if amount_out <= 0:
            raise SwapError(f"swap on {pool_id} returns nothing")

        logs = [tokens.transfer(token_in, sender, pool.spec.address, amount_in)]
        logs.append(
            tokens.transfer(token_out, pool.spec.address, sender, amount_out)
        )

        reserve_in, reserve_out = pool.reserves_for(token_in)
        new_in = reserve_in + amount_in
        new_out = reserve_out - amount_out
        if token_in == pool.spec.token0:
            self._reserves[pool_id] = (new_in, new_out)
            reserve0, reserve1 = new_in, new_out
        else:
            self._reserves[pool_id] = (new_out, new_in)
            reserve0, reserve1 = new_out, new_in

        logs.append(
            swap_log(
                pool.spec.address,
                sender,
                token_in,
                token_out,
                amount_in,
                amount_out,
                sender,
            )
        )
        logs.append(sync_log(pool.spec.address, reserve0, reserve1))
        return amount_out, logs

    # -- forking -----------------------------------------------------------

    def fork(
        self, tokens: TokenRegistry, log: "ReadLog | None" = None
    ) -> "AmmExchange":
        """Fork reserves; ``tokens`` must be the matching forked registry.

        Given a read log, the fork records its reads.
        """
        return AmmExchange(tokens, parent=self, log=log)

    def commit(self) -> None:
        if self._parent is None:
            raise DefiError("cannot commit a root AmmExchange")
        self._reserves.commit()
