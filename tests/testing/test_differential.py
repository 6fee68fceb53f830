"""Differential replay matrix tests.

One seeded config re-run under every perf configuration must produce
bit-identical world and dataset digests, zero oracle violations, and an
exact artifact-cache round-trip.  Fault-injected runs are held to the
same determinism contract.
"""

from __future__ import annotations

import pytest

from repro.chain.exec_cache import ExecutionCache
from repro.errors import ConformanceError
from repro.simulation.config import small_test_config
from repro.simulation.faults import FAULT_BUILDER_CRASH, FaultSpec
from repro.testing.differential import (
    DEFAULT_CASES,
    GROUP_DEFAULT,
    GROUP_SHARDED,
    CaseResult,
    ReplayCase,
    ReplayReport,
    run_replay_matrix,
)

CONFIG = small_test_config(num_days=4, blocks_per_day=6)


@pytest.fixture(scope="module")
def clean_report(tmp_path_factory):
    artifact_dir = tmp_path_factory.mktemp("artifacts")
    return run_replay_matrix(CONFIG, artifact_dir=artifact_dir)


class TestCleanMatrix:
    def test_matrix_is_consistent(self, clean_report):
        clean_report.assert_consistent()

    def test_every_default_case_ran(self, clean_report):
        assert [r.case.name for r in clean_report.results] == [
            c.name for c in DEFAULT_CASES
        ]

    def test_all_cases_oracle_clean(self, clean_report):
        assert all(r.oracle_violations == 0 for r in clean_report.results)

    def test_artifact_cache_round_trips(self, clean_report):
        assert (
            clean_report.artifact_roundtrip_digests[GROUP_DEFAULT]
            == clean_report.results[0].dataset_digest
        )


class TestFaultedMatrix:
    def test_faulted_runs_replay_identically(self, tmp_path, monkeypatch):
        """A faulted world replays identically with or without the slot's
        shared execution cache."""
        fault = FaultSpec(kind=FAULT_BUILDER_CRASH, target="Builder 1", day=2)
        config = CONFIG.with_overrides(faults=CONFIG.faults + (fault,))
        lookups = []
        execute = ExecutionCache.execute

        def counted_execute(self, *args, **kwargs):
            lookups.append(None)
            return execute(self, *args, **kwargs)

        monkeypatch.setattr(ExecutionCache, "execute", counted_execute)

        def replay():
            report = run_replay_matrix(
                config, cases=DEFAULT_CASES, artifact_dir=tmp_path
            )
            report.assert_consistent()
            # The fault plan is part of the artifact key, so the faulted
            # dataset caches and round-trips like a clean one.
            assert (
                report.artifact_roundtrip_digests[GROUP_DEFAULT]
                == report.results[0].dataset_digest
            )
            return [(r.world_digest, r.dataset_digest) for r in report.results]

        cached = replay()
        assert lookups
        # No slot gets a cache, so every transaction executes directly.
        monkeypatch.setattr("repro.simulation.world.ExecutionCache", lambda: None)
        lookups.clear()
        assert replay() == cached
        assert not lookups


def _case_result(name, world="w", dataset="d", violations=0, group=GROUP_DEFAULT):
    return CaseResult(
        case=ReplayCase(name=name, group=group),
        world_digest=world,
        dataset_digest=dataset,
        oracle_violations=violations,
    )


class TestReportVerdicts:
    def test_empty_matrix_is_a_problem(self):
        report = ReplayReport(config=CONFIG, results=())
        assert report.problems() == ["replay matrix ran no cases"]

    def test_world_digest_divergence_flagged(self):
        report = ReplayReport(
            config=CONFIG,
            results=(_case_result("ref"), _case_result("other", world="w2")),
        )
        assert any("world digest diverged" in p for p in report.problems())
        with pytest.raises(ConformanceError, match="world digest"):
            report.assert_consistent()

    def test_dataset_digest_divergence_flagged(self):
        report = ReplayReport(
            config=CONFIG,
            results=(_case_result("ref"), _case_result("other", dataset="d2")),
        )
        assert any("dataset digest diverged" in p for p in report.problems())

    def test_oracle_violations_flagged(self):
        report = ReplayReport(
            config=CONFIG, results=(_case_result("ref", violations=3),)
        )
        assert any("3 oracle violation" in p for p in report.problems())

    def test_roundtrip_mismatch_flagged(self):
        report = ReplayReport(
            config=CONFIG,
            results=(_case_result("ref"),),
            artifact_roundtrip_digests={GROUP_DEFAULT: "stale"},
        )
        assert any("round-trip" in p for p in report.problems())

    def test_consistent_report_is_ok(self):
        report = ReplayReport(
            config=CONFIG,
            results=(_case_result("ref"), _case_result("other")),
            artifact_roundtrip_digests={GROUP_DEFAULT: "d"},
        )
        assert report.ok

    def test_groups_compare_independently(self):
        """Digest divergence *across* groups is expected, not a problem."""
        report = ReplayReport(
            config=CONFIG,
            results=(
                _case_result("ref"),
                _case_result("seg", world="w2", dataset="d2", group=GROUP_SHARDED),
            ),
        )
        assert report.ok

    def test_divergence_within_sharded_group_flagged(self):
        report = ReplayReport(
            config=CONFIG,
            results=(
                _case_result("seg-1", group=GROUP_SHARDED),
                _case_result("seg-2", world="w2", group=GROUP_SHARDED),
            ),
        )
        assert any("group 'sharded'" in p for p in report.problems())
