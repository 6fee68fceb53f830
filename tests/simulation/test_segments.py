"""Epoch-segment plans, segment execution, and the study-window cap."""

from __future__ import annotations

import importlib
import multiprocessing
import re

import pytest

from repro.constants import STUDY_NUM_DAYS
from repro.errors import ConfigError
from repro.perf.sharding import host_cpu_count, run_sharded
from repro.simulation.config import SimulationConfig, small_test_config
from repro.simulation.segments import SegmentSpec, run_segment, segment_plan
from repro.simulation.world import build_world


# -- segment planning ------------------------------------------------------


def test_segment_plan_covers_days_exactly_with_uneven_tail():
    config = small_test_config(num_days=10, segment_days=4)
    plan = segment_plan(config)
    assert [(s.day_start, s.day_end) for s in plan] == [(0, 4), (4, 8), (8, 10)]
    assert all(s.num_segments == 3 for s in plan)
    assert [s.index for s in plan] == [0, 1, 2]
    assert sum(s.num_days for s in plan) == config.num_days
    assert config.num_segments == 3


def test_segment_plan_degenerates_to_single_full_segment():
    for overrides in ({"segment_days": 0}, {"segment_days": 99}):
        config = small_test_config(num_days=6, **overrides)
        plan = segment_plan(config)
        assert len(plan) == 1
        assert plan[0].covers_all
        assert (plan[0].day_start, plan[0].day_end) == (0, 6)


def test_segment_plan_is_worker_count_independent():
    serial = segment_plan(small_test_config(num_days=8, segment_days=3))
    pooled = segment_plan(
        small_test_config(num_days=8, segment_days=3, shard_workers=4)
    )
    assert serial == pooled


def test_segment_spec_slot_start():
    spec = SegmentSpec(index=1, num_segments=2, day_start=3, day_end=6)
    assert spec.num_days == 3
    assert not spec.covers_all


# -- config validation -----------------------------------------------------


def test_shard_workers_require_a_segment_plan():
    with pytest.raises(ConfigError, match="segment_days"):
        small_test_config(shard_workers=2)


def test_negative_segment_days_rejected():
    with pytest.raises(ConfigError, match="segment_days"):
        small_test_config(segment_days=-1)


def test_zero_shard_workers_rejected():
    with pytest.raises(ConfigError, match="shard_workers"):
        small_test_config(segment_days=2, shard_workers=0)


def test_study_window_cap_still_enforced_by_default():
    with pytest.raises(ConfigError, match="cannot exceed the study window"):
        SimulationConfig(num_days=STUDY_NUM_DAYS + 1)


# -- segment execution -----------------------------------------------------


def test_segmented_config_runs_only_sharded():
    with pytest.raises(ConfigError, match="run_sharded") as raised:
        build_world(small_test_config(num_days=4, segment_days=2))
    assert raised.value.field == "segment_days"
    # The message names a path the user can import.
    module, _, name = re.search(r"repro[\w.]*", str(raised.value))[0].rpartition(".")
    assert getattr(importlib.import_module(module), name) is run_sharded
    # A plan of one full segment is the unsegmented world.
    build_world(small_test_config(num_days=4, segment_days=4))


def test_single_segment_sharded_run_matches_legacy_world():
    config = small_test_config(num_days=4, blocks_per_day=6)
    legacy = build_world(config).run()
    run = run_sharded(config.with_overrides(segment_days=config.num_days))
    assert run.digest() == legacy.digest()


def test_run_segment_returns_serializable_delta():
    config = small_test_config(num_days=4, blocks_per_day=6, segment_days=2)
    plan = segment_plan(config)
    delta = run_segment(config, plan[1])
    assert delta.spec == plan[1]
    assert delta.world_digest
    assert len(delta.dataset.table)
    assert delta.perf_snapshot["counters"]
    first_block = int(delta.dataset.table.col("number").min())
    from repro.constants import MERGE_BLOCK_NUMBER

    assert first_block == (
        MERGE_BLOCK_NUMBER + plan[1].day_start * config.blocks_per_day
    )


def test_process_pool_shut_down_after_the_run():
    config = small_test_config(
        num_days=4, blocks_per_day=6, segment_days=2, shard_workers=2
    )
    run = run_sharded(config)
    assert len(run.deltas) == 2
    assert multiprocessing.active_children() == []


def test_host_cpu_count_positive():
    assert host_cpu_count() >= 1
