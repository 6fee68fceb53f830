"""Cyclic-arbitrage planning.

Finds token cycles (WETH -> A -> ... -> WETH) across pools whose composed
marginal price exceeds one, then sizes the input by golden-section search
over the (unimodal) profit curve of the constant-product path.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..defi.amm import AmmExchange, LiquidityPool
from ..errors import SwapError

MAX_CYCLE_LENGTH = 3
_SEARCH_ITERATIONS = 40
_GOLDEN = 0.6180339887498949


@dataclass(frozen=True)
class ArbitragePlan:
    """A sized arbitrage: pool hops with planned per-hop amounts."""

    hops: tuple[tuple[str, str, int, int], ...]  # (pool_id, token_in, in, out)
    amount_in: int
    amount_out: int

    @property
    def profit(self) -> int:
        """Profit in units of the start token."""
        return self.amount_out - self.amount_in


def find_arbitrage_cycles(
    amm: AmmExchange, start_token: str = "WETH"
) -> list[tuple[str, ...]]:
    """All pool-id cycles of length <= MAX_CYCLE_LENGTH through ``start_token``.

    Cycles are sequences of pool ids; consecutive pools share a token and
    the path starts and ends at ``start_token``.  Deterministic order.
    """
    # networkx loads on first use: a server imports this module through
    # the package inits but never builds a graph.
    import networkx as nx

    graph = nx.MultiGraph()
    for token_a, token_b, pool_id in amm.token_graph_edges():
        graph.add_edge(token_a, token_b, key=pool_id)
    if start_token not in graph:
        return []

    cycles: list[tuple[str, ...]] = []

    def _extend(token: str, used_pools: tuple[str, ...]) -> None:
        if len(used_pools) >= 2 and token == start_token:
            cycles.append(used_pools)
            return
        if len(used_pools) >= MAX_CYCLE_LENGTH:
            return
        for _, neighbor, pool_id in sorted(graph.edges(token, keys=True)):
            if pool_id in used_pools:
                continue
            # Only close the cycle at start_token; don't revisit others.
            if neighbor != start_token and any(
                neighbor in _pool_tokens(amm, used) for used in used_pools
            ):
                continue
            _extend(neighbor, used_pools + (pool_id,))

    _extend(start_token, ())
    # Deduplicate direction-reversed duplicates.
    unique: dict[frozenset[str], tuple[str, ...]] = {}
    for cycle in cycles:
        unique.setdefault(frozenset(cycle), cycle)
    return sorted(unique.values())


def _pool_tokens(amm: AmmExchange, pool_id: str) -> tuple[str, str]:
    spec = amm.pool(pool_id).spec
    return (spec.token0, spec.token1)


def _simulate_path(
    pools: list[LiquidityPool], start_token: str, amount_in: int
) -> list[tuple[str, str, int, int]] | None:
    """Walk the cycle with ``amount_in``; returns per-hop records or None."""
    token = start_token
    amount = amount_in
    hops: list[tuple[str, str, int, int]] = []
    for pool in pools:
        try:
            out = pool.quote_out(token, amount)
        except SwapError:
            return None
        if out <= 0:
            return None
        hops.append((pool.pool_id, token, amount, out))
        token = pool.other_token(token)
        amount = out
    if token != start_token:
        return None
    return hops


def plan_cycle_arbitrage(
    amm: AmmExchange,
    cycle: tuple[str, ...],
    max_input: int = 10**21,
    min_profit: int = 0,
) -> ArbitragePlan | None:
    """Size the WETH input for one WETH-to-WETH cycle; None if it cannot
    beat ``min_profit``.

    Cycles are stored direction-agnostically, but profit depends on the
    traversal direction, so both orientations are evaluated and the better
    one kept.  Planning quotes pool snapshots only, so concurrent planning
    by several searchers is safe; execution-time discrepancies are caught
    by each hop's min-out.
    """
    forward = _plan_directed_cycle(amm, cycle, "WETH", max_input, min_profit)
    backward = _plan_directed_cycle(
        amm, tuple(reversed(cycle)), "WETH", max_input, min_profit
    )
    if forward is None:
        return backward
    if backward is None or forward.profit >= backward.profit:
        return forward
    return backward


def _plan_directed_cycle(
    amm: AmmExchange,
    cycle: tuple[str, ...],
    start_token: str,
    max_input: int,
    min_profit: int,
) -> ArbitragePlan | None:
    pools = [amm.pool(pool_id) for pool_id in cycle]

    # Quick marginal-price check: composed mid-price must exceed 1 after fees.
    price = 1.0
    token = start_token
    for pool in pools:
        fee = 1.0 - pool.spec.fee_bps / 10_000
        price *= pool.mid_price(token) * fee
        token = pool.other_token(token)
    if token != start_token or price <= 1.0:
        return None

    # The search only needs the final output amount, and reserves are
    # fixed snapshots while planning — so precompute each hop's oriented
    # (reserve_in * BPS, reserve_out, fee multiplier) and evaluate the
    # whole path with inline integer arithmetic.  This is exactly
    # ``quote_out`` composed hop by hop (same floor divisions), minus the
    # per-hop object and method dispatch the profit curve search was
    # spending most of its time on.
    hop_params: list[tuple[int, int, int]] = []
    token = start_token
    for pool in pools:
        reserve_in, reserve_out = pool.reserves_for(token)
        hop_params.append(
            (reserve_in * 10_000, reserve_out, 10_000 - pool.spec.fee_bps)
        )
        token = pool.other_token(token)

    # The golden-section bracket revisits integer amounts as it narrows;
    # memoizing saves roughly a third of the path evaluations per cycle.
    profit_memo: dict[int, int] = {}

    def profit_of(amount: int) -> int:
        cached = profit_memo.get(amount)
        if cached is not None:
            return cached
        out = amount
        for reserve_in_bps, reserve_out, fee_mul in hop_params:
            if out <= 0:
                break
            in_with_fee = out * fee_mul
            out = (in_with_fee * reserve_out) // (reserve_in_bps + in_with_fee)
        profit = (out - amount) if out > 0 else -amount
        profit_memo[amount] = profit
        return profit

    # Golden-section search over [1, max_input] (profit is unimodal).
    low, high = 1.0, float(max_input)
    for _ in range(_SEARCH_ITERATIONS):
        mid_low = high - (high - low) * _GOLDEN
        mid_high = low + (high - low) * _GOLDEN
        if profit_of(int(mid_low)) >= profit_of(int(mid_high)):
            high = mid_high
        else:
            low = mid_low
    amount_in = max(1, int((low + high) / 2))
    hops = _simulate_path(pools, start_token, amount_in)
    if hops is None:
        return None
    plan = ArbitragePlan(
        hops=tuple(hops),
        amount_in=amount_in,
        amount_out=hops[-1][3],
    )
    if plan.profit <= min_profit:
        return None
    return plan
