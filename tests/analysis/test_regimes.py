"""Tests for the three-regime comparison analysis."""

from __future__ import annotations

import pytest

from repro.analysis.regimes import (
    REGIMES,
    RegimeMetrics,
    compare_regimes,
    regime_metrics,
    render_regime_comparison,
)
from repro.datasets import collect_study_dataset
from repro.simulation import build_world
from repro.simulation.config import small_test_config

CONFIG = small_test_config(num_days=8, blocks_per_day=6)


@pytest.fixture(scope="module")
def rows():
    return compare_regimes(CONFIG)


class TestCompareRegimes:
    def test_one_row_per_regime_in_order(self, rows):
        assert tuple(row.regime for row in rows) == REGIMES

    def test_rows_have_blocks_and_sane_hhi(self, rows):
        for row in rows:
            assert row.blocks > 0
            assert 0.0 < row.producer_hhi <= 1.0

    def test_promise_at_least_delivery_everywhere(self, rows):
        # Nobody ever under-promises in-model, and ePBS settlement tops
        # delivery up to the bid — so the gap is non-negative per regime.
        for row in rows:
            assert row.value_gap_eth >= -1e-9

    def test_local_regime_has_no_promise_gap(self, rows):
        local = next(row for row in rows if row.regime == "local")
        assert local.value_gap_eth == 0.0
        assert local.withheld_slots == 0
        assert local.slashings == 0

    def test_epbs_counters_only_for_epbs(self, rows):
        for row in rows:
            if row.regime != "epbs":
                assert (row.withheld_slots, row.empty_slots, row.slashings) == (
                    0,
                    0,
                    0,
                )


class TestRegimeMetrics:
    def test_epbs_promise_is_the_committed_bid(self):
        world = build_world(CONFIG.with_overrides(regime="epbs")).run()
        dataset = collect_study_dataset(world)
        row = regime_metrics("epbs", dataset)
        assert dataset.epbs is not None
        promised_wei = sum(rec.bid_wei for rec in dataset.epbs.slots)
        assert row.promised_eth == pytest.approx(promised_wei / 10**18)
        delivered_wei = sum(
            rec.payment_wei + rec.settled_wei for rec in dataset.epbs.slots
        )
        assert row.delivered_eth == pytest.approx(delivered_wei / 10**18)

    def test_render_mentions_every_regime(self):
        rows = [
            RegimeMetrics(
                regime=name,
                blocks=10,
                producer_hhi=0.5,
                promised_eth=1.0,
                delivered_eth=0.75,
                sanctioned_block_share=0.1,
            )
            for name in REGIMES
        ]
        text = render_regime_comparison(rows)
        for name in REGIMES:
            assert name in text
        assert "0.2500" in text  # the 0.25-ETH gap column
