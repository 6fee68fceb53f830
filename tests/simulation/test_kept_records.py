"""The records a finished run keeps per transaction carry no instance dict.

A run's chain keeps every block's transactions, with their actions, and
every execution outcome, with its receipt, logs, trace and frames, until
the dataset is collected; at the default config they are most of peak
memory.  Their classes are slotted dataclasses.  A class that loses
``slots=True``, or a ``functools.cached_property`` (which needs an
instance dict to cache into), would give each record a dict again.
"""

from __future__ import annotations

import pytest

from repro.simulation.config import small_test_config
from repro.simulation.world import build_world

#: Every record class the walk must reach.
KEPT = {
    "Transaction",
    "EthTransfer",
    "TokenTransfer",
    "SwapExact",
    "LiquidatePosition",
    "TipCoinbase",
    "TxOutcome",
    "Receipt",
    "Log",
    "TransactionTrace",
    "CallFrame",
}


def _kept_records(chain):
    """Blocks → transactions and actions; outcomes → receipt, logs,
    trace and frames."""
    for block in chain:
        for tx in block.transactions:
            yield tx
            yield from tx.actions
        for outcome in chain.execution_result(block.block_hash).outcomes:
            yield outcome
            yield outcome.receipt
            yield from outcome.receipt.logs
            yield outcome.trace
            yield from outcome.trace.frames


@pytest.mark.parametrize("regime", ["mev_boost", "epbs", "local"])
def test_kept_records_have_no_instance_dict(regime, small_world):
    world = (
        small_world
        if regime == "mev_boost"
        else build_world(small_test_config(regime=regime)).run()
    )
    seen: set[str] = set()
    with_dict: dict[str, int] = {}
    for record in _kept_records(world.chain):
        name = type(record).__name__
        seen.add(name)
        if hasattr(record, "__dict__"):
            with_dict[name] = with_dict.get(name, 0) + 1
    # Under local building no searcher pays a builder a coinbase tip.
    assert seen == (KEPT - {"TipCoinbase"} if regime == "local" else KEPT)
    assert with_dict == {}
