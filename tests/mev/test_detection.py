"""Unit tests for MEV detection and the multi-source label union.

Detection runs over real executed blocks: we build small scenarios with
the actual engine so the detectors see authentic receipts.
"""

import pytest

from repro.chain.block import seal_block
from repro.chain.execution import ExecutionContext, ExecutionEngine
from repro.chain.state import WorldState
from repro.chain.transaction import (
    LiquidatePosition,
    SwapExact,
    TransactionFactory,
)
from repro.defi.lending import LendingMarket
from repro.defi.oracle import PriceOracle
from repro.defi.registry import DefiProtocols
from repro.mev.detection import (
    MEV_ARBITRAGE,
    MEV_LIQUIDATION,
    MEV_SANDWICH,
    detect_arbitrage,
    detect_block_mev,
    detect_liquidations,
    detect_sandwiches,
)
from repro.mev.labels import LabelSource, MevDataset, build_default_sources
from repro.types import derive_address, derive_hash, ether, gwei

ATTACKER = derive_address("det", "attacker")
VICTIM = derive_address("det", "victim")
KEEPER = derive_address("det", "keeper")
FEE_RECIPIENT = derive_address("det", "builder")


@pytest.fixture
def world():
    oracle = PriceOracle({"ETH": 1500.0, "WETH": 1500.0, "USDC": 1.0})
    defi = DefiProtocols.create(oracle)
    defi.tokens.deploy("WETH")
    defi.tokens.deploy("USDC", 6)
    defi.amm.register_pool("WETH", "USDC", 1_000 * 10**18, 1_500_000 * 10**6)
    defi.amm.register_pool(
        "WETH", "USDC", 1_000 * 10**18, 1_600_000 * 10**6, fee_bps=5
    )
    market = LendingMarket("aave", defi.tokens, liquidation_threshold=0.8,
                           liquidation_bonus=0.1)
    defi.add_market(market)
    state = WorldState()
    for account in (ATTACKER, VICTIM, KEEPER):
        state.mint(account, ether(100))
    defi.tokens.mint("WETH", ATTACKER, 1_000 * 10**18)
    defi.tokens.mint("WETH", VICTIM, 1_000 * 10**18)
    defi.tokens.mint("USDC", ATTACKER, 10**13)
    defi.tokens.mint("USDC", KEEPER, 10**13)
    ctx = ExecutionContext(state=state, protocols=defi)
    return ctx, defi, oracle


def _execute_and_seal(ctx, txs):
    engine = ExecutionEngine()
    result = engine.execute_block(
        txs, ctx, gwei(10), FEE_RECIPIENT, gas_limit=30_000_000
    )
    block = seal_block(
        number=1, slot=1, timestamp=0, parent_hash=derive_hash("det", "p"),
        fee_recipient=FEE_RECIPIENT, gas_limit=30_000_000,
        gas_used=result.gas_used, base_fee_per_gas=gwei(10),
        transactions=tuple(result.included),
    )
    return block, result


def _sandwich_txs(defi):
    factory = TransactionFactory()
    pool = defi.amm.pool("WETH-USDC-30")
    front_in = 5 * 10**18
    front = factory.create(
        ATTACKER, 0, [SwapExact("WETH-USDC-30", "WETH", front_in, 1)],
        gwei(30), gwei(2),
    )
    victim = factory.create(
        VICTIM, 0, [SwapExact("WETH-USDC-30", "WETH", 10 * 10**18, 1)],
        gwei(30), gwei(2),
    )
    front_out = pool.quote_out("WETH", front_in)
    back = factory.create(
        ATTACKER, 1, [SwapExact("WETH-USDC-30", "USDC", front_out, 1)],
        gwei(30), gwei(2),
    )
    return [front, victim, back]


class TestSandwichDetection:
    def test_detects_pattern(self, world):
        ctx, defi, oracle = world
        txs = _sandwich_txs(defi)
        block, result = _execute_and_seal(ctx, txs)
        labels = detect_sandwiches(block, result.receipts, oracle)
        assert len(labels) == 2  # front and back transactions
        assert {label.tx_hash for label in labels} == {
            txs[0].tx_hash,
            txs[2].tx_hash,
        }
        assert all(label.kind == MEV_SANDWICH for label in labels)
        assert len({label.attack_id for label in labels}) == 1
        assert labels[0].profit_eth > 0  # back-run recovers more than front-in

    def test_no_victim_no_sandwich(self, world):
        ctx, defi, oracle = world
        front, _, back = _sandwich_txs(defi)
        block, result = _execute_and_seal(ctx, [front, back])
        assert detect_sandwiches(block, result.receipts, oracle) == []

    def test_plain_swaps_not_flagged(self, world):
        ctx, defi, oracle = world
        _, victim, _ = _sandwich_txs(defi)
        block, result = _execute_and_seal(ctx, [victim])
        assert detect_sandwiches(block, result.receipts, oracle) == []


class TestArbitrageDetection:
    def test_detects_profitable_cycle(self, world):
        ctx, defi, oracle = world
        factory = TransactionFactory()
        # Manually construct a cycle: buy USDC in the rich pool, sell in
        # the other.
        amount_in = 10 * 10**18
        out1 = defi.amm.pool("WETH-USDC-5").quote_out("WETH", amount_in)
        tx = factory.create(
            ATTACKER,
            0,
            [
                SwapExact("WETH-USDC-5", "WETH", amount_in, 1),
                SwapExact("WETH-USDC-30", "USDC", out1, 1),
            ],
            gwei(30),
            gwei(2),
        )
        block, result = _execute_and_seal(ctx, [tx])
        labels = detect_arbitrage(block, result.receipts, oracle)
        assert len(labels) == 1
        assert labels[0].kind == MEV_ARBITRAGE
        assert labels[0].profit_eth > 0

    def test_unprofitable_cycle_not_flagged(self, world):
        ctx, defi, oracle = world
        factory = TransactionFactory()
        # Wrong direction: buy in the expensive pool.
        amount_in = 10 * 10**18
        out1 = defi.amm.pool("WETH-USDC-30").quote_out("WETH", amount_in)
        tx = factory.create(
            ATTACKER,
            0,
            [
                SwapExact("WETH-USDC-30", "WETH", amount_in, 1),
                SwapExact("WETH-USDC-5", "USDC", out1, 1),
            ],
            gwei(30),
            gwei(2),
        )
        block, result = _execute_and_seal(ctx, [tx])
        assert detect_arbitrage(block, result.receipts, oracle) == []


class TestLiquidationDetection:
    def test_detects_liquidation(self, world):
        ctx, defi, oracle = world
        borrower = derive_address("det", "borrower")
        defi.markets["aave"].open_position(
            borrower, "WETH", 10**19, "USDC", 6_000 * 10**6
        )
        oracle.set_price("WETH", 700.0)
        factory = TransactionFactory()
        tx = factory.create(
            KEEPER, 0, [LiquidatePosition("aave", borrower)], gwei(30), gwei(2)
        )
        block, result = _execute_and_seal(ctx, [tx])
        labels = detect_liquidations(block, result.receipts, oracle)
        assert len(labels) == 1
        assert labels[0].kind == MEV_LIQUIDATION
        assert labels[0].profit_eth > 0


class TestLabelSources:
    def test_recall_validation(self):
        with pytest.raises(Exception):
            LabelSource(name="bad", recall=0.0)

    def test_full_recall_keeps_everything(self, world):
        ctx, defi, oracle = world
        block, result = _execute_and_seal(ctx, _sandwich_txs(defi))
        detected = detect_block_mev(block, result.receipts, oracle)
        full = LabelSource(name="perfect", recall=1.0)
        recalled = full.recalled(detected)
        assert len(recalled) == 2
        assert [label.tx_hash for label in recalled] == [
            label.tx_hash for label in detected
        ]
        assert {label.source for label in recalled} == {"perfect"}

    def test_sources_miss_different_attacks(self, world):
        ctx, defi, oracle = world
        block, result = _execute_and_seal(ctx, _sandwich_txs(defi))
        detected = detect_block_mev(block, result.receipts, oracle)
        # Across many imagined sources, some keep and some drop a given
        # attack — keys are deterministic per (source, attack).
        keeps = [
            LabelSource(name=f"s{i}", recall=0.5)._keeps(detected[0].attack_id)
            for i in range(40)
        ]
        assert any(keeps) and not all(keeps)

    def test_union_dataset(self, world):
        ctx, defi, oracle = world
        block, result = _execute_and_seal(ctx, _sandwich_txs(defi))
        dataset = MevDataset(sources=build_default_sources())
        added = dataset.ingest_block(block, result.receipts, oracle)
        assert len(added) == len(dataset)
        # Union never exceeds ground truth, and per-source counts sum higher.
        truth = detect_block_mev(block, result.receipts, oracle)
        assert len(dataset) <= len(truth)
        assert sum(dataset.per_source_counts().values()) >= len(dataset)

    def test_dataset_queries(self, world):
        ctx, defi, oracle = world
        txs = _sandwich_txs(defi)
        block, result = _execute_and_seal(ctx, txs)
        dataset = MevDataset(sources=[LabelSource("perfect", 1.0)])
        dataset.ingest_block(block, result.receipts, oracle)
        kinds = {label.tx_hash: label.kind for label in dataset.all_labels()}
        assert kinds[txs[0].tx_hash] == MEV_SANDWICH
        assert txs[1].tx_hash not in kinds  # the victim
        assert dataset.count_by_kind() == {MEV_SANDWICH: 2}
        assert dataset.labels_for_block(block.number)
        assert dataset.labels_for_block(999) == []
