"""Tests for the builder-relay connectivity analysis."""

import pytest

from repro.analysis.network_structure import (
    builder_relay_graph,
    connectivity_report,
    relay_overlap_matrix,
)
from repro.errors import AnalysisError


class TestGraph:
    def test_bipartite_structure(self, small_dataset):
        graph = builder_relay_graph(small_dataset)
        for left, right in graph.edges():
            kinds = {left[0], right[0]}
            assert kinds == {"builder", "relay"}

    def test_edge_weights_positive(self, small_dataset):
        graph = builder_relay_graph(small_dataset)
        for _, _, data in graph.edges(data=True):
            assert data["weight"] >= 1

    def test_total_weight_counts_accepted_submissions(self, small_dataset):
        graph = builder_relay_graph(small_dataset)
        total = sum(d["weight"] for _, _, d in graph.edges(data=True))
        records = [
            record
            for relay in small_dataset.relays.values()
            for record in relay.data.get_builder_blocks_received()
        ]
        accepted = sum(1 for record in records if record.accepted)
        assert total == accepted
        assert 0 < accepted < len(records)


class TestReport:
    def test_report_consistency(self, small_dataset):
        report = connectivity_report(small_dataset)
        assert report.builders > 0
        assert 0 < report.relays <= 11
        assert report.edges >= max(report.builders, report.relays) - 1
        assert report.mean_relays_per_builder >= 1.0
        assert report.mean_builders_per_relay >= 1.0
        assert 0 <= report.single_relay_builders <= report.builders
        assert 0 < report.largest_relay_dependency <= 1.0

    def test_internal_builders_single_homed(self, small_dataset):
        # Internal relay builders (Flashbots, blocknative, Eden, the
        # bloXroute trio) submit only to their own relay, so single-relay
        # builders must exist.
        report = connectivity_report(small_dataset)
        assert report.single_relay_builders >= 1

    def test_empty_dataset_rejected(self, small_dataset):
        import copy

        empty = copy.copy(small_dataset)
        empty.relays = {}
        with pytest.raises(AnalysisError):
            connectivity_report(empty)


class TestOverlap:
    def test_overlap_bounds(self, small_dataset):
        overlaps = relay_overlap_matrix(small_dataset)
        for (left, right), value in overlaps.items():
            assert left < right  # canonical ordering, no duplicates
            assert 0.0 <= value <= 1.0

    def test_internal_relays_disjoint(self, small_dataset):
        overlaps = relay_overlap_matrix(small_dataset)
        # Blocknative and Eden only carry their own internal builder, so
        # their mutual overlap must be zero when both appear.
        value = overlaps.get(("Blocknative", "Eden"))
        if value is not None:
            assert value == 0.0
