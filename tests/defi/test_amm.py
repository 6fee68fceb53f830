"""Unit tests for the constant-product AMM."""

import pytest

from repro.chain.receipts import SWAP_EVENT_TOPIC, SYNC_EVENT_TOPIC
from repro.defi.amm import AmmExchange
from repro.defi.tokens import TokenRegistry
from repro.errors import DefiError, SwapError
from repro.types import derive_address

ALICE = derive_address("amm", "alice")

WETH_RESERVE = 1_000 * 10**18
USDC_RESERVE = 1_500_000 * 10**6


@pytest.fixture
def setup():
    tokens = TokenRegistry()
    tokens.deploy("WETH")
    tokens.deploy("USDC", decimals=6)
    tokens.deploy("DAI")
    amm = AmmExchange(tokens)
    amm.register_pool("WETH", "USDC", WETH_RESERVE, USDC_RESERVE)
    tokens.mint("WETH", ALICE, 100 * 10**18)
    return tokens, amm


class TestRegistration:
    def test_pool_id_derived(self, setup):
        _, amm = setup
        assert amm.pool_ids() == ["WETH-USDC-30"]

    def test_duplicate_rejected(self, setup):
        _, amm = setup
        with pytest.raises(DefiError):
            amm.register_pool("WETH", "USDC", 1, 1)

    def test_same_token_rejected(self, setup):
        _, amm = setup
        with pytest.raises(DefiError):
            amm.register_pool("WETH", "WETH", 1, 1)

    def test_empty_reserves_rejected(self, setup):
        _, amm = setup
        with pytest.raises(DefiError):
            amm.register_pool("WETH", "DAI", 0, 1)

    def test_reserves_minted_to_pool(self, setup):
        tokens, amm = setup
        pool = amm.pool("WETH-USDC-30")
        assert tokens.balance_of("WETH", pool.spec.address) == WETH_RESERVE


class TestQuoting:
    def test_small_swap_near_spot(self, setup):
        _, amm = setup
        out = amm.quote_out("WETH-USDC-30", "WETH", 10**16)  # 0.01 WETH
        spot = USDC_RESERVE / WETH_RESERVE  # USDC-units per WETH-unit
        assert out == pytest.approx(10**16 * spot * 0.997, rel=0.001)

    def test_large_swap_slips(self, setup):
        _, amm = setup
        small = amm.quote_out("WETH-USDC-30", "WETH", 10**18)
        large = amm.quote_out("WETH-USDC-30", "WETH", 100 * 10**18)
        assert large / 100 < small  # price impact

    def test_zero_input_rejected(self, setup):
        _, amm = setup
        with pytest.raises(SwapError):
            amm.quote_out("WETH-USDC-30", "WETH", 0)

    def test_wrong_token_rejected(self, setup):
        _, amm = setup
        with pytest.raises(DefiError):
            amm.quote_out("WETH-USDC-30", "DAI", 1)


class TestSwapping:
    def test_swap_moves_tokens_and_reserves(self, setup):
        tokens, amm = setup
        out, logs = amm.swap(
            "WETH-USDC-30", ALICE, "WETH", 10**18, 1, tokens
        )
        assert tokens.balance_of("USDC", ALICE) == out
        pool = amm.pool("WETH-USDC-30")
        assert pool.reserve0 == WETH_RESERVE + 10**18
        assert pool.reserve1 == USDC_RESERVE - out

    def test_swap_emits_transfer_swap_sync(self, setup):
        tokens, amm = setup
        _, logs = amm.swap("WETH-USDC-30", ALICE, "WETH", 10**18, 1, tokens)
        topics = [log.topic for log in logs]
        assert topics.count(SWAP_EVENT_TOPIC) == 1
        assert topics.count(SYNC_EVENT_TOPIC) == 1
        assert len(logs) == 4  # 2 transfers + swap + sync

    def test_min_out_reverts(self, setup):
        tokens, amm = setup
        quote = amm.quote_out("WETH-USDC-30", "WETH", 10**18)
        with pytest.raises(SwapError):
            amm.swap("WETH-USDC-30", ALICE, "WETH", 10**18, quote + 1, tokens)

    def test_invariant_grows_with_fees(self, setup):
        tokens, amm = setup
        pool_before = amm.pool("WETH-USDC-30")
        k_before = pool_before.reserve0 * pool_before.reserve1
        amm.swap("WETH-USDC-30", ALICE, "WETH", 10**18, 1, tokens)
        pool_after = amm.pool("WETH-USDC-30")
        assert pool_after.reserve0 * pool_after.reserve1 >= k_before

    def test_round_trip_loses_to_fees(self, setup):
        tokens, amm = setup
        out, _ = amm.swap("WETH-USDC-30", ALICE, "WETH", 10**18, 1, tokens)
        back, _ = amm.swap("WETH-USDC-30", ALICE, "USDC", out, 1, tokens)
        assert back < 10**18


class TestForking:
    def test_fork_isolation(self, setup):
        tokens, amm = setup
        forked_tokens = tokens.fork()
        forked_amm = amm.fork(forked_tokens)
        forked_amm.swap(
            "WETH-USDC-30", ALICE, "WETH", 10**18, 1, forked_tokens
        )
        assert amm.pool("WETH-USDC-30").reserve0 == WETH_RESERVE

    def test_fork_commit(self, setup):
        tokens, amm = setup
        forked_tokens = tokens.fork()
        forked_amm = amm.fork(forked_tokens)
        forked_amm.swap(
            "WETH-USDC-30", ALICE, "WETH", 10**18, 1, forked_tokens
        )
        forked_amm.commit()
        forked_tokens.commit()
        assert amm.pool("WETH-USDC-30").reserve0 == WETH_RESERVE + 10**18


class TestGraph:
    def test_token_graph_edges(self, setup):
        _, amm = setup
        assert amm.token_graph_edges() == [("WETH", "USDC", "WETH-USDC-30")]

    def test_mid_price_orientation(self, setup):
        _, amm = setup
        pool = amm.pool("WETH-USDC-30")
        price_weth = pool.mid_price("WETH")
        price_usdc = pool.mid_price("USDC")
        assert price_weth * price_usdc == pytest.approx(1.0)
