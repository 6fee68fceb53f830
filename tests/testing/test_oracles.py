"""Invariant-oracle tests: clean worlds stay clean, tampering is caught.

The session worlds double as regression anchors: the small world must
produce zero findings of any kind, and the medium world's findings must
all be anomalies attributed to the paper's modeled failure modes — never
unexplained violations.
"""

from __future__ import annotations

import pytest

from repro.core.relay_api import DeliveredPayload
from repro.errors import OracleViolationError
from repro.testing.oracles import run_oracles
from repro.testing.oracles import (
    KIND_INTERNAL_MISPROMISE,
    KIND_TIMESTAMP_BUG,
    KIND_VALIDATION_OUTAGE,
    ORACLES,
    OracleFinding,
    OracleReport,
    SEVERITY_ANOMALY,
    SEVERITY_VIOLATION,
)


class TestFindingAndReport:
    def test_unattributed_finding_is_a_violation(self):
        finding = OracleFinding(oracle="conservation", message="broke")
        assert finding.severity == SEVERITY_VIOLATION

    def test_attributed_finding_is_an_anomaly(self):
        finding = OracleFinding(
            oracle="relay-consistency",
            message="explained",
            attributed_to=(KIND_VALIDATION_OUTAGE, "Manifold"),
        )
        assert finding.severity == SEVERITY_ANOMALY

    def test_report_splits_by_attribution(self):
        violation = OracleFinding(oracle="a", message="v")
        anomaly = OracleFinding(
            oracle="b", message="a", attributed_to=("kind", "target")
        )
        report = OracleReport(findings=(violation, anomaly))
        assert report.violations == (violation,)
        assert report.anomalies == (anomaly,)
        assert report.anomaly_keys() == frozenset({("kind", "target")})

    def test_assert_clean_passes_on_anomalies_only(self):
        anomaly = OracleFinding(
            oracle="b", message="a", attributed_to=("kind", "target")
        )
        OracleReport(findings=(anomaly,)).assert_clean()

    def test_assert_clean_raises_on_violations(self):
        violation = OracleFinding(
            oracle="conservation", message="supply off", block_number=3
        )
        report = OracleReport(findings=(violation,))
        with pytest.raises(OracleViolationError, match="supply off"):
            report.assert_clean()


class TestCleanWorlds:
    def test_small_world_produces_no_findings(self, small_world, small_dataset):
        report = run_oracles(small_world, small_dataset)
        assert report.findings == ()

    @pytest.mark.parametrize("name", [name for name, _ in ORACLES])
    def test_each_oracle_clean_on_small_world(
        self, name, small_world, small_dataset
    ):
        oracle = dict(ORACLES)[name]
        assert oracle(small_world, small_dataset) == []

    def test_medium_world_has_no_violations(self, medium_world, medium_dataset):
        run_oracles(medium_world, medium_dataset).assert_clean()

    def test_medium_world_attributes_modeled_incidents(
        self, medium_world, medium_dataset
    ):
        """The seeded paper incidents surface as attributed anomalies."""
        keys = run_oracles(medium_world, medium_dataset).anomaly_keys()
        assert (KIND_VALIDATION_OUTAGE, "Manifold") in keys
        assert (KIND_INTERNAL_MISPROMISE, "Eden") in keys
        assert (KIND_TIMESTAMP_BUG, "builder0x69") in keys


class TestTamperingDetected:
    def test_phantom_delivery_is_a_violation(self, small_world, small_dataset):
        """A delivered payload without an accepted submission is flagged."""
        relay = small_world.relays["Flashbots"]
        obs = small_dataset.table.row(0)
        phantom = DeliveredPayload(
            relay=relay.name,
            slot=obs.slot,
            block_number=obs.number,
            block_hash=obs.block_hash,
            builder_pubkey="0x" + "ab" * 24,
            proposer_pubkey="0x" + "cd" * 24,
            proposer_fee_recipient="0x" + "ef" * 20,
            value_claimed_wei=1,
        )
        relay.data.record_delivery(phantom)
        try:
            report = run_oracles(small_world, small_dataset)
            assert any(
                "without an accepted submission" in f.message
                for f in report.violations
            )
        finally:
            relay.data._payloads.remove(phantom)

    def test_supply_mismatch_is_a_violation(self, small_world, small_dataset):
        state = small_world.state
        state._minted_wei += 1
        try:
            report = run_oracles(small_world, small_dataset)
            assert any(
                "total supply" in f.message for f in report.violations
            )
        finally:
            state._minted_wei -= 1
