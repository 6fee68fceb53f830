"""MEV detection from chain evidence.

These detectors replicate the methodology of the label sources the paper
unions (EigenPhi, ZeroMev, and the Weintraub et al. scripts): they look
*only* at block contents — swap and liquidation event logs and transaction
order — never at simulator internals, so they would work on a real chain
export just the same.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chain.block import Block
from ..chain.receipts import (
    LIQUIDATION_EVENT_TOPIC,
    SWAP_EVENT_TOPIC,
    Receipt,
)
from ..defi.oracle import PriceOracle
from ..types import Hash

MEV_SANDWICH = "sandwich"
MEV_ARBITRAGE = "arbitrage"
MEV_LIQUIDATION = "liquidation"


@dataclass(frozen=True)
class MevLabel:
    """One detected MEV transaction."""

    tx_hash: Hash
    block_number: int
    kind: str
    profit_eth: float
    source: str = "detector"
    # Groups the legs of one attack (both sandwich transactions share it).
    attack_id: str = ""


@dataclass(frozen=True)
class _SwapRecord:
    tx_hash: Hash
    pool: str
    sender: str
    recipient: str
    token_in: str
    token_out: str
    amount_in: int
    amount_out: int


def _swap_records(receipts: list[Receipt]) -> list[_SwapRecord]:
    records = []
    for receipt in receipts:
        if not receipt.success:
            continue
        for log in receipt.logs_with_topic(SWAP_EVENT_TOPIC):
            records.append(
                _SwapRecord(
                    tx_hash=receipt.tx_hash,
                    pool=log.address,
                    sender=log.data["sender"],
                    recipient=log.data["to"],
                    token_in=log.data["token_in"],
                    token_out=log.data["token_out"],
                    amount_in=log.data["amount_in"],
                    amount_out=log.data["amount_out"],
                )
            )
    return records


def detect_sandwiches(
    block: Block, receipts: list[Receipt], oracle: PriceOracle | None = None
) -> list[MevLabel]:
    """Detect sandwich attacks from the block's swap-log sequence.

    Pattern: a front-run swap, one or more victim swaps in the same pool
    and direction by different accounts, then a reversing swap by the
    front-runner's account.  Both attacker transactions are labelled, as
    in the paper (a sandwich consists of two transactions).
    """
    swaps = _swap_records(receipts)
    labels: list[MevLabel] = []
    used_back_indices: set[int] = set()
    for i, front in enumerate(swaps):
        for j in range(i + 1, len(swaps)):
            back = swaps[j]
            if j in used_back_indices:
                continue
            if back.pool != front.pool or back.sender != front.sender:
                continue
            if back.token_in != front.token_out:
                continue  # not a reversal
            victims = [
                swap
                for swap in swaps[i + 1 : j]
                if swap.pool == front.pool
                and swap.token_in == front.token_in
                and swap.sender != front.sender
            ]
            if not victims:
                continue
            profit_units = back.amount_out - front.amount_in
            profit_eth = (
                oracle.value_in_eth(front.token_in, profit_units)
                if oracle is not None
                else profit_units / 10**18
            )
            attack_id = f"sw:{block.number}:{front.tx_hash}"
            labels.append(
                MevLabel(
                    tx_hash=front.tx_hash,
                    block_number=block.number,
                    kind=MEV_SANDWICH,
                    profit_eth=profit_eth,
                    attack_id=attack_id,
                )
            )
            labels.append(
                MevLabel(
                    tx_hash=back.tx_hash,
                    block_number=block.number,
                    kind=MEV_SANDWICH,
                    profit_eth=0.0,
                    attack_id=attack_id,
                )
            )
            used_back_indices.add(j)
            break
    return labels


def detect_arbitrage(
    block: Block, receipts: list[Receipt], oracle: PriceOracle | None = None
) -> list[MevLabel]:
    """Detect cyclic arbitrage: one transaction whose swaps form a
    profitable cycle (first token in == last token out, output > input)."""
    labels: list[MevLabel] = []
    by_tx: dict[Hash, list[_SwapRecord]] = {}
    for record in _swap_records(receipts):
        by_tx.setdefault(record.tx_hash, []).append(record)
    for tx_hash, records in by_tx.items():
        if len(records) < 2:
            continue
        chained = all(
            records[k].token_out == records[k + 1].token_in
            and records[k].amount_out >= records[k + 1].amount_in
            for k in range(len(records) - 1)
        )
        if not chained:
            continue
        first, last = records[0], records[-1]
        if first.token_in != last.token_out:
            continue
        profit_units = last.amount_out - first.amount_in
        if profit_units <= 0:
            continue
        profit_eth = (
            oracle.value_in_eth(first.token_in, profit_units)
            if oracle is not None
            else profit_units / 10**18
        )
        labels.append(
            MevLabel(
                tx_hash=tx_hash,
                block_number=block.number,
                kind=MEV_ARBITRAGE,
                profit_eth=profit_eth,
                attack_id=f"arb:{block.number}:{tx_hash}",
            )
        )
    return labels


def detect_liquidations(
    block: Block, receipts: list[Receipt], oracle: PriceOracle | None = None
) -> list[MevLabel]:
    """Detect liquidations from ``LiquidationCall`` logs."""
    labels: list[MevLabel] = []
    for receipt in receipts:
        if not receipt.success:
            continue
        for log in receipt.logs_with_topic(LIQUIDATION_EVENT_TOPIC):
            if oracle is not None:
                collateral_eth = oracle.value_in_eth(
                    log.data["collateral_token"], log.data["collateral_seized"]
                )
                debt_eth = oracle.value_in_eth(
                    log.data["debt_token"], log.data["debt_repaid"]
                )
                profit_eth = max(0.0, collateral_eth - debt_eth)
            else:
                profit_eth = 0.0
            labels.append(
                MevLabel(
                    tx_hash=receipt.tx_hash,
                    block_number=block.number,
                    kind=MEV_LIQUIDATION,
                    profit_eth=profit_eth,
                    attack_id=f"liq:{block.number}:{receipt.tx_hash}",
                )
            )
    return labels


def detect_block_mev(
    block: Block, receipts: list[Receipt], oracle: PriceOracle | None = None
) -> list[MevLabel]:
    """All MEV labels for one block (sandwiches, arbitrage, liquidations)."""
    labels = detect_sandwiches(block, receipts, oracle)
    labels.extend(detect_arbitrage(block, receipts, oracle))
    labels.extend(detect_liquidations(block, receipts, oracle))
    return labels
