"""End-to-end regressions for the paper failure modes.

Each incident the paper documents — the Manifold validation outage, the
Eden internal-builder mispromise, builder0x69's stale timestamps, the
bloXroute front-running-filter misses, and the stale-OFAC sanctions lag
— must surface through the analysis layer's numbers or the detection
pass AND carry the right conformance attribution.  The first four are
in the medium world (the first three through the default fault plan);
the sanctions lag is exercised through its fault-injection scenario.
"""

from __future__ import annotations

import pytest

from repro.analysis.censorship import sanctioned_blocks_by_relay
from repro.analysis.mev import bloxroute_ethical_sandwiches
from repro.analysis.relays import relay_trust_table
from repro.simulation.faults import FAULT_TIMESTAMP_BUG
from repro.testing.oracles import run_oracles
from repro.testing.oracles import (
    KIND_INTERNAL_MISPROMISE,
    KIND_VALIDATION_OUTAGE,
)
from repro.testing.scenarios import (
    FAULT_INTERNAL_MISPROMISE,
    FAULT_MEV_FILTER_MISS,
    FAULT_SANCTIONS_LAG,
    FAULT_VALIDATION_OUTAGE,
    default_scenarios,
    detect_anomalies,
)


@pytest.fixture(scope="module")
def trust_rows(medium_dataset):
    return {row.relay: row for row in relay_trust_table(medium_dataset)}


@pytest.fixture(scope="module")
def medium_report(medium_world, medium_dataset):
    return run_oracles(medium_world, medium_dataset)


@pytest.fixture(scope="module")
def medium_anomalies(medium_world, medium_dataset, medium_report):
    return detect_anomalies(medium_world, medium_dataset, medium_report)


class TestManifoldValidationOutage:
    """2022-10-15: Manifold stopped validating; a builder overpromised."""

    def test_table4_shows_the_promise_gap(self, trust_rows):
        row = trust_rows["Manifold"]
        assert row.promised_value_eth > 2 * row.delivered_value_eth
        assert row.share_over_promised_blocks > 0

    def test_oracle_attributes_the_gap_to_the_outage(self, medium_report):
        assert (
            KIND_VALIDATION_OUTAGE,
            "Manifold",
        ) in medium_report.anomaly_keys()

    def test_detection_flags_the_incident(self, medium_anomalies):
        anomaly = medium_anomalies[(FAULT_VALIDATION_OUTAGE, "Manifold")]
        assert anomaly.metric >= 1


class TestEdenInternalMispromise:
    """The 278-ETH shape: Eden's own builder promised far above payment."""

    def test_table4_shows_the_promise_gap(self, trust_rows):
        row = trust_rows["Eden"]
        assert row.promised_value_eth > row.delivered_value_eth
        assert row.share_over_promised_blocks > 0

    def test_oracle_attributes_the_gap_to_the_internal_builder(
        self, medium_report
    ):
        assert (
            KIND_INTERNAL_MISPROMISE,
            "Eden",
        ) in medium_report.anomaly_keys()

    def test_detection_flags_the_incident(self, medium_anomalies):
        anomaly = medium_anomalies[(FAULT_INTERNAL_MISPROMISE, "Eden")]
        assert anomaly.metric >= 1


class TestTimestampBug:
    """2022-11-10: builder0x69's stale-timestamp payloads never landed."""

    def test_detection_flags_the_incident(self, medium_anomalies):
        anomaly = medium_anomalies[(FAULT_TIMESTAMP_BUG, "builder0x69")]
        assert anomaly.metric >= 1


class TestBloxrouteFilterMisses:
    """The 2,002-sandwich shape: the announced filter keeps missing."""

    def test_relay_trace_shows_misses(self, medium_world):
        relay = medium_world.relays["bloXroute (E)"]
        assert len(relay.filter_missed_slots) > 0

    def test_detection_counts_every_miss(self, medium_world, medium_anomalies):
        anomaly = medium_anomalies[(FAULT_MEV_FILTER_MISS, "bloXroute (E)")]
        relay = medium_world.relays["bloXroute (E)"]
        assert anomaly.metric == len(relay.filter_missed_slots)

    def test_delivered_sandwiches_are_a_subset_of_misses(
        self, medium_world, medium_dataset
    ):
        """The paper's delivered-sandwich count can never exceed the
        relay-side miss trace (every delivered sandwich was accepted)."""
        relay = medium_world.relays["bloXroute (E)"]
        assert bloxroute_ethical_sandwiches(medium_dataset) <= len(
            relay.filter_missed_slots
        )


class TestSanctionsLagWindow:
    """The three-month stale-OFAC-copy window behind Table 4's leaks."""

    @pytest.fixture(scope="class")
    def lag_result(self, scenario_runner):
        scenario = {s.name: s for s in default_scenarios()}["stale-ofac-copy"]
        return scenario_runner.run(scenario)

    def test_scenario_detected_exactly(self, lag_result):
        lag_result.assert_detected()

    def test_analysis_shows_the_leak_through_the_compliant_relay(
        self, lag_result
    ):
        baseline = {
            row.relay: row
            for row in sanctioned_blocks_by_relay(lag_result.baseline.dataset)
        }
        perturbed = {
            row.relay: row
            for row in sanctioned_blocks_by_relay(lag_result.perturbed.dataset)
        }
        assert perturbed["Flashbots"].is_compliant
        assert (
            perturbed["Flashbots"].sanctioned_blocks
            > baseline["Flashbots"].sanctioned_blocks
        )

    def test_every_leak_is_lag_attributed(self, lag_result):
        keys = {f.attributed_to for f in lag_result.perturbed.report.anomalies}
        assert (FAULT_SANCTIONS_LAG, "Flashbots") in keys
        assert lag_result.perturbed.report.violations == ()
