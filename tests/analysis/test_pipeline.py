"""Tests for the measurement pipeline over the small session dataset.

These check structural correctness (shares sum to one, partitions hold,
definitions are internally consistent); qualitative paper findings are
asserted in the integration suite over the medium world.
"""

import pytest

import repro.analysis as an
from repro.analysis.adoption import identification_rule_breakdown
from repro.analysis.censorship import (
    overall_sanctioned_shares,
    sanctioned_blocks_by_relay,
)
from repro.analysis.mev import mev_totals_by_kind
from repro.analysis.relays import (
    multi_relay_share,
    pbs_totals_row,
    relay_trust_table,
)


class TestAdoption:
    def test_shares_in_unit_interval(self, small_dataset):
        series = an.daily_pbs_share(small_dataset)
        assert all(0.0 <= value <= 1.0 for value in series.values)

    def test_identification_breakdown(self, small_dataset):
        breakdown = identification_rule_breakdown(small_dataset)
        assert 0.9 <= breakdown["relay_claimed"] <= 1.0
        assert 0.5 <= breakdown["payment_convention"] <= 1.0


class TestRewards:
    def test_payment_shares_sum_to_one(self, small_dataset):
        base, priority, direct = an.daily_user_payment_shares(small_dataset)
        for b, p, d in zip(base.values, priority.values, direct.values):
            assert b + p + d == pytest.approx(1.0)

    def test_base_fee_dominates(self, small_dataset):
        base, priority, direct = an.daily_user_payment_shares(small_dataset)
        assert base.mean() > priority.mean() > 0
        assert direct.mean() >= 0


class TestRelayAnalyses:
    def test_daily_shares_sum_to_one(self, small_dataset):
        for shares in an.daily_relay_shares(small_dataset).values():
            assert sum(shares.values()) == pytest.approx(1.0)

    def test_multi_relay_share_in_range(self, small_dataset):
        assert 0.0 <= multi_relay_share(small_dataset) <= 1.0

    def test_trust_table_consistent(self, small_dataset):
        rows = relay_trust_table(small_dataset)
        assert rows, "some relay must have delivered"
        for row in rows:
            assert row.delivered_value_eth >= 0
            assert row.promised_value_eth >= row.delivered_value_eth - 1e-9
            assert 0 <= row.share_over_promised_blocks <= 1
        totals = pbs_totals_row(rows)
        assert totals.blocks == sum(row.blocks for row in rows)

    def test_builders_per_relay_counts(self, small_dataset):
        per_relay = an.builders_per_relay_daily(small_dataset)
        for counts in per_relay.values():
            assert all(count >= 1 for count in counts.values())


class TestBuilderAnalyses:
    def test_clusters_cover_pbs_blocks(self, small_dataset):
        clusters = an.cluster_builders(small_dataset)
        clustered = sum(cluster.block_count for cluster in clusters)
        assert clustered == int(small_dataset.table.is_pbs.sum())

    def test_clusters_disjoint(self, small_dataset):
        clusters = an.cluster_builders(small_dataset)
        block_numbers = small_dataset.table.col("number")
        seen = set()
        for cluster in clusters:
            numbers = set(block_numbers[cluster.indices].tolist())
            assert not numbers & seen
            seen |= numbers

    def test_daily_builder_shares_sum_to_one(self, small_dataset):
        for shares in an.daily_builder_shares(small_dataset).values():
            assert sum(shares.values()) == pytest.approx(1.0)

    def test_profit_distributions_match_definitions(self, small_dataset):
        profits = an.builder_profit_distribution(small_dataset)
        proposer = an.proposer_profit_by_builder(small_dataset)
        assert set(profits) == set(proposer)
        for name in profits:
            assert len(profits[name]) == len(proposer[name])

    def test_builder_map_rows(self, small_dataset):
        rows = an.builder_map(small_dataset, top=5)
        assert len(rows) <= 5
        # Sorted by block count descending.
        counts = [row.blocks for row in rows]
        assert counts == sorted(counts, reverse=True)

    def test_profit_split_series_aligned(self, small_dataset):
        builder, proposer = an.daily_profit_split(small_dataset)
        assert builder.dates == proposer.dates
        for b, p in zip(builder.values, proposer.values):
            assert b + p == pytest.approx(1.0, abs=1e-9)


class TestBlockAnalyses:
    def test_block_value_series(self, small_dataset):
        pbs, non_pbs = an.daily_block_value(small_dataset)
        assert all(value >= 0 for value in pbs.values)
        assert all(value >= 0 for value in non_pbs.values)

    def test_proposer_profit_percentiles_ordered(self, small_dataset):
        pbs, non_pbs = an.daily_proposer_profit(small_dataset)
        for series in (pbs, non_pbs):
            for p25, p50, p75 in zip(series.p25, series.p50, series.p75):
                assert p25 <= p50 <= p75

    def test_block_size_bounds(self, small_dataset):
        pbs_mean, pbs_std, non_mean, non_std = an.daily_block_size(small_dataset)
        for value in pbs_mean.values + non_mean.values:
            assert 0 <= value <= 30_000_000
        for value in pbs_std.values + non_std.values:
            assert value >= 0

    def test_private_share_bounds(self, small_dataset):
        pbs, non_pbs = an.daily_private_tx_share(small_dataset)
        for value in pbs.values + non_pbs.values:
            assert 0.0 <= value <= 1.0


class TestMevAnalyses:
    def test_counts_nonnegative(self, small_dataset):
        pbs, non_pbs = an.daily_mev_per_block(small_dataset)
        assert all(value >= 0 for value in pbs.values + non_pbs.values)

    def test_kind_filter_partitions(self, small_dataset):
        total_pbs, _ = an.daily_mev_per_block(small_dataset)
        by_kind = [
            an.daily_mev_per_block(small_dataset, kind=kind)[0]
            for kind in ("sandwich", "arbitrage", "liquidation")
        ]
        for i, date in enumerate(total_pbs.dates):
            total = total_pbs.values[i]
            parts = sum(series.values[i] for series in by_kind)
            assert parts == pytest.approx(total)

    def test_value_share_bounds(self, small_dataset):
        pbs, non_pbs = an.daily_mev_value_share(small_dataset)
        for value in pbs.values + non_pbs.values:
            assert 0.0 <= value <= 1.0

    def test_totals_by_kind(self, small_dataset):
        totals = mev_totals_by_kind(small_dataset)
        assert all(count >= 0 for count in totals.values())

    def test_bloxroute_count_nonnegative(self, small_dataset):
        assert an.bloxroute_ethical_sandwiches(small_dataset) >= 0


class TestCensorshipAnalyses:
    def test_compliant_share_bounds(self, small_dataset):
        series = an.daily_compliant_relay_share(small_dataset)
        assert all(0.0 <= value <= 1.0 for value in series.values)

    def test_sanctioned_shares_bounds(self, small_dataset):
        pbs, non_pbs = an.daily_sanctioned_share(small_dataset)
        for value in pbs.values + non_pbs.values:
            assert 0.0 <= value <= 1.0

    def test_overall_shares_keys(self, small_dataset):
        shares = overall_sanctioned_shares(small_dataset)
        assert set(shares) == {"PBS", "non-PBS"}

    def test_per_relay_rows_consistent(self, small_dataset):
        rows = sanctioned_blocks_by_relay(small_dataset)
        for row in rows:
            assert 0 <= row.sanctioned_blocks <= row.total_blocks
            assert 0.0 <= row.share <= 1.0
