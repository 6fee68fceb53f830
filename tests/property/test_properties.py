"""Property-based tests (hypothesis) on core data structures and invariants."""

import datetime

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.concentration import herfindahl_hirschman_index
from repro.chain.fee_market import gas_target, next_base_fee
from repro.chain.state import WorldState
from repro.cow import CowDict
from repro.defi.amm import AmmExchange
from repro.defi.tokens import TokenRegistry
from repro.mev.sandwich import plan_sandwich
from repro.sanctions.ofac import SanctionsList
from repro.types import derive_address

GAS_LIMIT = 30_000_000

addresses = st.integers(min_value=0, max_value=50).map(
    lambda i: derive_address("prop", i)
)


class TestFeeMarketProperties:
    @given(
        base_fee=st.integers(min_value=7, max_value=10**12),
        gas_used=st.integers(min_value=0, max_value=GAS_LIMIT),
    )
    def test_base_fee_never_below_floor(self, base_fee, gas_used):
        assert next_base_fee(base_fee, gas_used, GAS_LIMIT) >= 7

    @given(
        base_fee=st.integers(min_value=7, max_value=10**12),
        gas_used=st.integers(min_value=0, max_value=GAS_LIMIT),
    )
    def test_change_bounded_by_one_eighth(self, base_fee, gas_used):
        updated = next_base_fee(base_fee, gas_used, GAS_LIMIT)
        bound = base_fee // 8 + 1
        assert abs(updated - base_fee) <= bound

    @given(
        base_fee=st.integers(min_value=100, max_value=10**12),
        gas_a=st.integers(min_value=0, max_value=GAS_LIMIT),
        gas_b=st.integers(min_value=0, max_value=GAS_LIMIT),
    )
    def test_monotone_in_gas_used(self, base_fee, gas_a, gas_b):
        low, high = sorted((gas_a, gas_b))
        assert next_base_fee(base_fee, low, GAS_LIMIT) <= next_base_fee(
            base_fee, high, GAS_LIMIT
        )

    @given(base_fee=st.integers(min_value=7, max_value=10**12))
    def test_fixed_point_at_target(self, base_fee):
        assert next_base_fee(base_fee, gas_target(GAS_LIMIT), GAS_LIMIT) == (
            base_fee
        )


class TestStateProperties:
    @given(
        operations=st.lists(
            st.tuples(
                st.sampled_from(["mint", "transfer", "burn"]),
                addresses,
                addresses,
                st.integers(min_value=0, max_value=10**18),
            ),
            max_size=40,
        )
    )
    def test_conservation_under_any_operations(self, operations):
        state = WorldState()
        for op, a, b, amount in operations:
            try:
                if op == "mint":
                    state.mint(a, amount)
                elif op == "transfer":
                    state.transfer(a, b, amount)
                else:
                    state.burn(a, amount)
            except Exception:
                continue  # overdrafts are rejected atomically
        assert state.total_supply() == state.minted_wei - state.burned_wei
        for _, a, b, _ in operations:
            assert state.balance_of(a) >= 0
            assert state.balance_of(b) >= 0

    @given(
        base_ops=st.lists(
            st.tuples(addresses, st.integers(min_value=0, max_value=10**18)),
            min_size=1,
            max_size=10,
        ),
        fork_ops=st.lists(
            st.tuples(addresses, st.integers(min_value=0, max_value=10**18)),
            max_size=10,
        ),
    )
    def test_fork_commit_equals_direct(self, base_ops, fork_ops):
        direct = WorldState()
        forked = WorldState()
        for address, amount in base_ops:
            direct.mint(address, amount)
            forked.mint(address, amount)
        fork = forked.fork()
        for address, amount in fork_ops:
            direct.mint(address, amount)
            fork.mint(address, amount)
        fork.commit()
        for address, _ in base_ops + fork_ops:
            assert direct.balance_of(address) == forked.balance_of(address)


class TestCowDictProperties:
    @given(
        base=st.dictionaries(st.integers(0, 20), st.integers(), max_size=15),
        writes=st.dictionaries(st.integers(0, 20), st.integers(), max_size=15),
        deletes=st.sets(st.integers(0, 20), max_size=10),
    )
    def test_fork_commit_equals_plain_dict(self, base, writes, deletes):
        plain = dict(base)
        cow = CowDict()
        for key, value in base.items():
            cow[key] = value
        fork = cow.fork()
        for key, value in writes.items():
            plain[key] = value
            fork[key] = value
        for key in deletes:
            plain.pop(key, None)
            if key in fork:
                del fork[key]
        fork.commit()
        assert dict(cow.items()) == plain


class TestAmmProperties:
    def _pool(self, reserve0, reserve1):
        tokens = TokenRegistry()
        tokens.deploy("WETH")
        tokens.deploy("USDC", 6)
        amm = AmmExchange(tokens)
        amm.register_pool("WETH", "USDC", reserve0, reserve1)
        tokens.mint("WETH", derive_address("prop", "trader"), 10**30)
        tokens.mint("USDC", derive_address("prop", "trader"), 10**30)
        return tokens, amm

    @given(
        reserve0=st.integers(min_value=10**18, max_value=10**24),
        reserve1=st.integers(min_value=10**9, max_value=10**15),
        swaps=st.lists(
            st.tuples(
                st.sampled_from(["WETH", "USDC"]),
                st.floats(min_value=1e-6, max_value=0.2),
            ),
            max_size=8,
        ),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariant_never_decreases(self, reserve0, reserve1, swaps):
        tokens, amm = self._pool(reserve0, reserve1)
        trader = derive_address("prop", "trader")
        k = reserve0 * reserve1
        for token_in, fraction in swaps:
            pool = amm.pool("WETH-USDC-30")
            reserve_in, _ = pool.reserves_for(token_in)
            amount = max(1, int(reserve_in * fraction))
            try:
                amm.swap("WETH-USDC-30", trader, token_in, amount, 0, tokens)
            except Exception:
                continue
            pool = amm.pool("WETH-USDC-30")
            new_k = pool.reserve0 * pool.reserve1
            assert new_k >= k
            k = new_k

    @given(
        amount=st.integers(min_value=1, max_value=10**21),
    )
    @settings(max_examples=40, deadline=None)
    def test_quote_less_than_reserve(self, amount):
        _, amm = self._pool(10**21, 1_500_000 * 10**6)
        out = amm.quote_out("WETH-USDC-30", "WETH", amount)
        assert 0 <= out < 1_500_000 * 10**6


class TestSandwichProperties:
    @given(
        victim=st.integers(min_value=10**17, max_value=50 * 10**18),
        slack=st.floats(min_value=0.0, max_value=0.10),
    )
    @settings(max_examples=40, deadline=None)
    def test_victim_always_clears_min_out(self, victim, slack):
        tokens = TokenRegistry()
        tokens.deploy("WETH")
        tokens.deploy("USDC", 6)
        amm = AmmExchange(tokens)
        amm.register_pool("WETH", "USDC", 2_000 * 10**18, 3_000_000 * 10**6)
        pool = amm.pool("WETH-USDC-30")
        quote = pool.quote_out("WETH", victim)
        min_out = int(quote * (1 - slack))
        plan = plan_sandwich(pool, victim, min_out, "WETH")
        if plan is not None:
            assert plan.victim_amount_out >= min_out
            assert plan.profit > 0


class TestHHIProperties:
    @given(
        shares=st.dictionaries(
            st.text(min_size=1, max_size=4),
            st.floats(min_value=0.001, max_value=1000.0),
            min_size=1,
            max_size=30,
        )
    )
    def test_hhi_bounds(self, shares):
        hhi = herfindahl_hirschman_index(shares)
        assert 1.0 / len(shares) - 1e-9 <= hhi <= 1.0 + 1e-9


class TestSanctionsProperties:
    @given(
        offsets=st.lists(
            st.integers(min_value=0, max_value=300), min_size=1, max_size=30,
            unique=True,
        ),
        query_offset=st.integers(min_value=-5, max_value=400),
    )
    def test_effective_set_is_monotone_in_time(self, offsets, query_offset):
        start = datetime.date(2022, 9, 1)
        sanctions = SanctionsList()
        for index, offset in enumerate(offsets):
            sanctions.add(
                derive_address("prop-sanc", index),
                start + datetime.timedelta(days=offset),
            )
        query = start + datetime.timedelta(days=query_offset)
        day_after = query + datetime.timedelta(days=1)
        assert sanctions.addresses_as_of(query) <= sanctions.addresses_as_of(
            day_after
        )
        # Next-day rule: nothing listed on the query day is effective yet.
        for entry in sanctions.entries():
            if entry.listed_date == query:
                assert entry.address not in sanctions.addresses_as_of(query)
