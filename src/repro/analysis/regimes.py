"""Three-regime comparison: MEV-Boost vs enshrined PBS vs local building.

The paper measures today's out-of-protocol MEV-Boost market; EIP-7732
moves the auction in-protocol with staked builders.  This module runs
the same seeded world under each ``SimulationConfig.regime`` and reduces
every run through the unchanged analysis pipeline to one comparable row
per regime: producer concentration (HHI), the promised-vs-delivered
value gap (Table 4's axis), censorship exposure, and the ePBS-only
failure counters (withheld payloads, empty slots, slashings).

Promised value means what the proposer was told it would earn before
signing: the best relay claim under MEV-Boost, the committed bid under
ePBS, and the block's own value under local building (where there is
nobody to promise anything, so the gap is identically zero).  Delivered
value is what actually arrived — including, under ePBS, shortfall
settlement drawn from builder collateral.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..datasets.collector import StudyDataset
from ..simulation.config import SimulationConfig
from ..types import ether
from .concentration import herfindahl_hirschman_index

#: The regimes compared, in presentation order.
REGIMES: tuple[str, ...] = ("mev_boost", "epbs", "local")


@dataclass(frozen=True)
class RegimeMetrics:
    """One regime's row of the comparison table."""

    regime: str
    blocks: int
    producer_hhi: float
    promised_eth: float
    delivered_eth: float
    sanctioned_block_share: float
    withheld_slots: int = 0
    empty_slots: int = 0
    slashings: int = 0

    @property
    def value_gap_eth(self) -> float:
        """Promised minus delivered — what proposers were shorted."""
        return self.promised_eth - self.delivered_eth


def regime_metrics(
    regime: str, dataset: StudyDataset
) -> RegimeMetrics:
    """Reduce one regime's dataset to its comparison row.

    Works on any :class:`StudyDataset` — it reads the block table as
    :class:`BlockObservation` rows, and the ePBS counters come from the
    consensus-side ledger the collector attaches only when the regime
    stakes builders.
    """
    producer_blocks: dict[str, float] = {}
    promised_wei = 0
    delivered_wei = 0
    sanctioned = 0
    blocks = 0
    for obs in dataset.table.to_observations():
        blocks += 1
        producer = obs.extra_data or obs.proposer_entity
        producer_blocks[producer] = producer_blocks.get(producer, 0.0) + 1.0
        delivered = obs.delivered_value_wei
        delivered_wei += delivered
        if dataset.epbs is None:
            promised_wei += max(obs.claimed_by_relay.values(), default=delivered)
        if obs.is_sanctioned:
            sanctioned += 1

    withheld = empty = slashings = 0
    if dataset.epbs is not None:
        # Under ePBS the promise is the committed bid, and delivery
        # includes escrow settlement (withheld-payload charges and
        # reneging shortfalls), which never appears in execution blocks.
        promised_wei = sum(rec.bid_wei for rec in dataset.epbs.slots)
        delivered_wei = sum(
            rec.payment_wei + rec.settled_wei for rec in dataset.epbs.slots
        )
        withheld = sum(1 for rec in dataset.epbs.slots if not rec.revealed)
        empty = sum(
            1
            for rec in dataset.epbs.slots
            if rec.revealed and not rec.payload_full
        )
        slashings = len(dataset.epbs.slashings)

    return RegimeMetrics(
        regime=regime,
        blocks=blocks,
        producer_hhi=herfindahl_hirschman_index(producer_blocks),
        promised_eth=promised_wei / ether(1),
        delivered_eth=delivered_wei / ether(1),
        sanctioned_block_share=(sanctioned / blocks) if blocks else 0.0,
        withheld_slots=withheld,
        empty_slots=empty,
        slashings=slashings,
    )


def compare_regimes(base_config: SimulationConfig) -> list[RegimeMetrics]:
    """Run ``base_config`` under each of ``REGIMES``; one comparison row each.

    Every run goes through the sharded executor (which degrades to the
    single-segment path when the config is unsegmented), so the rows are
    digest-deterministic at any ``shard_workers``.
    """
    from ..perf.sharding import run_sharded

    rows: list[RegimeMetrics] = []
    for regime in REGIMES:
        config = base_config.with_overrides(regime=regime)
        run = run_sharded(config)
        rows.append(regime_metrics(regime, run.dataset))
    return rows


def render_regime_comparison(rows: list[RegimeMetrics]) -> str:
    """Plain-text comparison table for the CLI report."""
    header = (
        f"{'regime':<10} {'blocks':>7} {'HHI':>7} {'promised':>12} "
        f"{'delivered':>12} {'gap':>10} {'sanc%':>7} "
        f"{'withheld':>9} {'empty':>6} {'slashed':>8}"
    )
    lines = ["Three-regime comparison", header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.regime:<10} {row.blocks:>7d} {row.producer_hhi:>7.3f} "
            f"{row.promised_eth:>10.4f} E {row.delivered_eth:>10.4f} E "
            f"{row.value_gap_eth:>8.4f} E {row.sanctioned_block_share:>6.1%} "
            f"{row.withheld_slots:>9d} {row.empty_slots:>6d} "
            f"{row.slashings:>8d}"
        )
    return "\n".join(lines)
