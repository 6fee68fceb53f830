"""Determinism regression: the perf machinery must never change a world.

Same seed → bit-identical world digest, with or without the shared
execution cache — and, for a fixed epoch-segment plan, regardless of the
number of *process* shard workers.  The heavy lifting lives in the
conformance harness's differential replay matrix
(``repro.testing.differential``); this module pins the perf contract
through it, and runs the same worlds with every slot's cache replaced by
direct execution.  The exec-cache hit and miss counters must repeat
exactly too, so they can back count-based claims.
"""

from __future__ import annotations

import pytest

from repro.datasets import collect_study_dataset
from repro.perf.sharding import run_sharded
from repro.simulation.config import small_test_config
from repro.simulation.world import build_world
from repro.testing.differential import (
    DEFAULT_CASES,
    GROUP_DEFAULT,
    GROUP_SHARDED,
    run_replay_matrix,
    sharded_cases,
)


CONFIG = small_test_config(num_days=4, blocks_per_day=6)


def _exec_cache_counts(perf) -> tuple[int, int]:
    return perf.counters["exec_cache_hits"], perf.counters["exec_cache_misses"]


@pytest.fixture(scope="module")
def replay_report(tmp_path_factory):
    return run_replay_matrix(
        CONFIG,
        cases=DEFAULT_CASES + sharded_cases(segment_days=2),
        artifact_dir=tmp_path_factory.mktemp("determinism-artifacts"),
    )


def test_replay_matrix_is_bit_identical(replay_report):
    replay_report.assert_consistent()


def _without_exec_cache(monkeypatch):
    """No slot gets a cache, so every transaction executes directly on the
    engine."""
    monkeypatch.setattr("repro.simulation.world.ExecutionCache", lambda: None)


def test_exec_cache_invariant(replay_report, monkeypatch):
    """Direct execution reproduces the unsegmented ``reference`` world."""
    _without_exec_cache(monkeypatch)
    reference = {r.case.name: r for r in replay_report.results}["reference"]

    world = build_world(CONFIG).run()
    assert _exec_cache_counts(world.perf) == (0, 0)
    assert world.digest() == reference.world_digest
    assert collect_study_dataset(world).content_digest() == reference.dataset_digest


def test_artifact_cache_round_trips(replay_report):
    assert (
        replay_report.artifact_roundtrip_digests[GROUP_DEFAULT]
        == replay_report.results[0].dataset_digest
    )


# -- process-sharded epoch segments ----------------------------------------


def test_shard_worker_count_invariant(replay_report):
    """{1, 2, 4} process workers over one segment plan: same digests."""
    by_name = {r.case.name: r for r in replay_report.results}
    reference = by_name["sharded-serial"]
    for name in ("sharded-workers-2", "sharded-workers-4"):
        assert by_name[name].world_digest == reference.world_digest
        assert by_name[name].dataset_digest == reference.dataset_digest


def test_sharded_exec_cache_invariant(replay_report, monkeypatch):
    """Direct execution reproduces the ``sharded-serial`` world."""
    _without_exec_cache(monkeypatch)
    sharded = {r.case.name: r for r in replay_report.results}["sharded-serial"]

    run = run_sharded(CONFIG.with_overrides(segment_days=2))
    assert _exec_cache_counts(run.perf) == (0, 0)
    assert run.digest() == sharded.world_digest
    assert run.dataset.content_digest() == sharded.dataset_digest


def test_sharded_artifact_cache_round_trips(replay_report):
    sharded = [
        r for r in replay_report.results if r.case.group == GROUP_SHARDED
    ]
    assert sharded, "matrix ran no sharded cases"
    assert (
        replay_report.artifact_roundtrip_digests[GROUP_SHARDED]
        == sharded[0].dataset_digest
    )


def test_sharded_runs_are_oracle_clean(replay_report):
    for result in replay_report.results:
        if result.case.group == GROUP_SHARDED:
            assert result.oracle_violations == 0


# -- exec-cache counters -----------------------------------------------------


def test_exec_cache_counters_repeat_across_runs():
    first, second = (
        _exec_cache_counts(build_world(CONFIG).run().perf) for _ in range(2)
    )
    assert first == second
    assert first[0] > 0 and first[1] > 0


# Hits and misses at CONFIG per (regime, segment_days; 0 = unsegmented).
# A cache that silently stops hitting leaves every digest as it was; these
# counts move.
EXEC_CACHE_COUNTS = {
    ("mev_boost", 0): (3_709, 1_821),
    ("epbs", 0): (3_060, 1_259),
    ("local", 0): (0, 0),
    ("mev_boost", 2): (3_894, 1_609),
    ("epbs", 2): (3_185, 1_247),
}


@pytest.mark.parametrize("regime, segment_days", sorted(EXEC_CACHE_COUNTS))
def test_exec_cache_counters_are_pinned(regime, segment_days):
    config = CONFIG.with_overrides(regime=regime)
    if segment_days:
        perf = run_sharded(config.with_overrides(segment_days=segment_days)).perf
    else:
        perf = build_world(config).run().perf
    assert _exec_cache_counts(perf) == EXEC_CACHE_COUNTS[regime, segment_days]


def test_exec_cache_counters_invariant_to_shard_workers():
    counts = [
        _exec_cache_counts(
            run_sharded(
                CONFIG.with_overrides(segment_days=2, shard_workers=workers)
            ).perf
        )
        for workers in (1, 2)
    ]
    assert counts[0] == counts[1]
    assert counts[0][0] > 0 and counts[0][1] > 0
