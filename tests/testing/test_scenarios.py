"""Fault-injection scenario tests: spec plumbing, exactness, the matrix.

The matrix test is the heart of the conformance harness: every shipped
scenario must be flagged by the detection pass (new key or strictly
increased metric) while the clean baseline stays violation-free and no
unexpected anomaly appears.
"""

from __future__ import annotations

import pytest

from repro.errors import ScenarioError
from repro.simulation.config import small_test_config
from repro.simulation.faults import FAULT_TIMESTAMP_BUG, apply_fault
from repro.simulation.world import build_world
from repro.testing.oracles import OracleFinding, OracleReport
from repro.testing.scenarios import (
    FAULT_BUILDER_CRASH,
    FAULT_DROPPED_PAYLOAD,
    FAULT_MEV_FILTER_MISS,
    FAULT_SANCTIONS_LAG,
    DetectedAnomaly,
    FaultSpec,
    RunArtifacts,
    Scenario,
    ScenarioResult,
    default_scenarios,
    scenario_from_dict,
    scenarios_from_yaml,
)

SCENARIOS = {scenario.name: scenario for scenario in default_scenarios()}


class TestSpecs:
    def test_unknown_fault_kind_rejected(self):
        with pytest.raises(ScenarioError, match="unknown fault kind"):
            FaultSpec(kind="gremlins", target="Flashbots")

    def test_detection_key_and_expected_keys(self):
        spec = FaultSpec(kind=FAULT_BUILDER_CRASH, target="Builder 1", day=9)
        scenario = Scenario(name="s", description="", faults=(spec,))
        assert spec.detection_key() == (FAULT_BUILDER_CRASH, "Builder 1")
        assert scenario.expected_keys() == {(FAULT_BUILDER_CRASH, "Builder 1")}

    def test_from_dict_requires_name_and_faults(self):
        with pytest.raises(ScenarioError, match="missing required field"):
            scenario_from_dict({"faults": [{"kind": "builder-crash", "target": "b"}]})
        with pytest.raises(ScenarioError, match="injects no faults"):
            scenario_from_dict({"name": "empty", "faults": []})

    def test_from_dict_rejects_unknown_fault_fields(self):
        with pytest.raises(ScenarioError, match="unknown fault field"):
            scenario_from_dict(
                {
                    "name": "typo",
                    "faults": [
                        {"kind": "builder-crash", "target": "b", "dya": 9}
                    ],
                }
            )

    def test_yaml_round_trip(self):
        text = """
scenarios:
  - name: crash
    description: builder goes dark
    faults:
      - kind: builder-crash
        target: Builder 1
        day: 9
  - name: lag
    faults:
      - kind: sanctions-lag
        target: Flashbots
        lag_days: 90
    config_overrides:
      blocks_per_day: 16
"""
        crash, lag = scenarios_from_yaml(text)
        assert crash.faults == (
            FaultSpec(kind=FAULT_BUILDER_CRASH, target="Builder 1", day=9),
        )
        assert lag.faults[0].lag_days == 90
        assert lag.config_overrides == {"blocks_per_day": 16}

    def test_yaml_accepts_top_level_list(self):
        loaded = scenarios_from_yaml(
            "- name: crash\n  faults:\n    - {kind: builder-crash, target: b}\n"
        )
        assert loaded[0].name == "crash"

    def test_yaml_rejects_scalar_document(self):
        with pytest.raises(ScenarioError, match="list of scenarios"):
            scenarios_from_yaml("just a string")


@pytest.fixture(scope="module")
def unrun_world():
    """A built-but-not-run world for fault application tests."""
    return build_world(small_test_config(num_days=2, blocks_per_day=4))


class TestApplyFault:
    def test_unknown_relay_rejected(self, unrun_world):
        with pytest.raises(ScenarioError, match="unknown relay"):
            apply_fault(
                unrun_world,
                FaultSpec(kind=FAULT_SANCTIONS_LAG, target="NoSuchRelay"),
            )

    def test_filter_fault_needs_a_filtering_relay(self, unrun_world):
        with pytest.raises(ScenarioError, match="no front-running filter"):
            apply_fault(
                unrun_world,
                FaultSpec(kind=FAULT_MEV_FILTER_MISS, target="Flashbots"),
            )

    def test_lag_fault_needs_a_compliant_relay(self, unrun_world):
        with pytest.raises(ScenarioError, match="not compliant"):
            apply_fault(
                unrun_world,
                FaultSpec(kind=FAULT_SANCTIONS_LAG, target="Manifold"),
            )

    def test_mispromise_needs_an_internal_builder(self, unrun_world):
        with pytest.raises(ScenarioError, match="not an internal builder"):
            apply_fault(
                unrun_world,
                FaultSpec(
                    kind="internal-builder-mispromise",
                    target="Eden",
                    builder="Flashbots",
                ),
            )

    def test_drop_fault_covers_every_relay_for_the_day(self, unrun_world):
        apply_fault(
            unrun_world, FaultSpec(kind=FAULT_DROPPED_PAYLOAD, target="*", day=1)
        )
        bpd = unrun_world.config.blocks_per_day
        for relay in unrun_world.relays.values():
            assert len(relay.drop_payload_slots) == bpd

    def test_filter_fault_sets_miss_rate(self, unrun_world):
        apply_fault(
            unrun_world,
            FaultSpec(kind=FAULT_MEV_FILTER_MISS, target="bloXroute (E)", rate=1.0),
        )
        assert unrun_world.relays["bloXroute (E)"].mev_filter_miss_rate == 1.0


def _artifacts(anomalies: dict, violations: int = 0) -> RunArtifacts:
    findings = tuple(
        OracleFinding(oracle="t", message=f"broken {i}") for i in range(violations)
    )
    return RunArtifacts(
        world=None,
        dataset=None,
        report=OracleReport(findings=findings),
        anomalies={
            key: DetectedAnomaly(
                kind=key[0], target=key[1], metric=metric, evidence="e"
            )
            for key, metric in anomalies.items()
        },
        digest="d",
    )


def _result(baseline, perturbed, expected_key) -> ScenarioResult:
    scenario = Scenario(
        name="unit",
        description="",
        faults=(FaultSpec(kind=expected_key[0], target=expected_key[1]),),
    )
    return ScenarioResult(
        scenario=scenario, baseline=baseline, perturbed=perturbed
    )


class TestExactness:
    KEY = (FAULT_BUILDER_CRASH, "Builder 1")
    OTHER = (FAULT_DROPPED_PAYLOAD, "*")

    def test_new_expected_key_passes(self):
        result = _result(_artifacts({}), _artifacts({self.KEY: 1.0}), self.KEY)
        assert result.ok

    def test_missing_expected_key_fails(self):
        result = _result(_artifacts({}), _artifacts({}), self.KEY)
        assert any("was not detected" in p for p in result.problems())
        with pytest.raises(ScenarioError, match="was not detected"):
            result.assert_detected()

    def test_preexisting_key_must_strictly_increase(self):
        result = _result(
            _artifacts({self.KEY: 2.0}), _artifacts({self.KEY: 2.0}), self.KEY
        )
        assert any("did not increase" in p for p in result.problems())
        grew = _result(
            _artifacts({self.KEY: 2.0}), _artifacts({self.KEY: 3.0}), self.KEY
        )
        assert grew.ok

    def test_unexpected_new_key_fails(self):
        result = _result(
            _artifacts({}),
            _artifacts({self.KEY: 1.0, self.OTHER: 1.0}),
            self.KEY,
        )
        assert any("unexpected anomaly" in p for p in result.problems())

    def test_preexisting_unrelated_key_tolerated(self):
        """Background anomalies present in the baseline don't fail a run."""
        result = _result(
            _artifacts({self.OTHER: 5.0}),
            _artifacts({self.OTHER: 4.0, self.KEY: 1.0}),
            self.KEY,
        )
        assert result.ok

    def test_baseline_violations_fail(self):
        result = _result(
            _artifacts({}, violations=1), _artifacts({self.KEY: 1.0}), self.KEY
        )
        assert any("baseline run" in p for p in result.problems())

    def test_perturbed_violations_fail(self):
        result = _result(
            _artifacts({}),
            _artifacts({self.KEY: 1.0}, violations=2),
            self.KEY,
        )
        assert any("perturbed run" in p for p in result.problems())


class TestScenarioMatrix:
    """The shipped fault matrix: exact detection on the small world."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_detected_exactly(self, name, scenario_runner):
        result = scenario_runner.run(SCENARIOS[name])
        result.assert_detected()
        for key in result.scenario.expected_keys():
            assert result.perturbed.anomalies[key].metric > 0

    def test_clean_baseline_is_violation_free(self, scenario_runner):
        baseline = scenario_runner.baseline_for(scenario_runner.base_config)
        assert baseline.report.violations == ()

    def test_timestamp_bug_detected_exactly(self, scenario_runner):
        """A stale-timestamp day surfaces through the oracle's attribution."""
        scenario = Scenario(
            name="timestamp-bug-day",
            description="builder0x69 seals a day of blocks with a stale timestamp",
            faults=(
                FaultSpec(kind=FAULT_TIMESTAMP_BUG, target="builder0x69", day=10),
            ),
        )
        result = scenario_runner.run(scenario)
        result.assert_detected()
        assert result.perturbed.anomalies[
            (FAULT_TIMESTAMP_BUG, "builder0x69")
        ].metric >= 1
