"""Cross-process perf aggregation."""

from __future__ import annotations

import pytest

from repro.perf.metrics import PerfRegistry


def _registry(timers: dict, counters: dict) -> PerfRegistry:
    registry = PerfRegistry()
    for name, value in timers.items():
        registry.timers[name] += value
    for name, value in counters.items():
        registry.add(name, value)
    return registry


def test_merge_snapshot_sums_timers_and_counters():
    parent = _registry({"slot_loop": 2.0, "builder_phase": 1.0}, {"blocks": 5})
    worker = _registry({"slot_loop": 4.0, "builder_phase": 3.0}, {"blocks": 7})
    parent.merge_snapshot(worker.snapshot())
    assert parent.timers["slot_loop"] == pytest.approx(6.0)
    assert parent.timers["builder_phase"] == pytest.approx(4.0)
    assert parent.counters["blocks"] == 12


def test_builder_phase_share_stays_accurate_across_workers():
    """Shares must be computed from summed times, not averaged shares.

    Worker A spends 1s of 2s in the builder phase (50%); worker B spends
    6s of 8s (75%).  The merged share is 7/10, not the 62.5% a naive
    mean-of-shares would report.
    """
    merged = PerfRegistry()
    for timers in (
        {"slot_loop": 2.0, "builder_phase": 1.0},
        {"slot_loop": 8.0, "builder_phase": 6.0},
    ):
        merged.merge_snapshot(_registry(timers, {}).snapshot())
    assert merged.share("builder_phase", "slot_loop") == pytest.approx(0.7)


def test_from_snapshot_round_trips():
    original = _registry({"collection": 1.5}, {"txs": 42})
    rebuilt = PerfRegistry()
    rebuilt.merge_snapshot(original.snapshot())
    assert rebuilt.snapshot() == original.snapshot()


def test_merge_snapshot_tolerates_empty_payload():
    registry = _registry({"slot_loop": 1.0}, {"blocks": 1})
    registry.merge_snapshot({})
    assert registry.timers["slot_loop"] == pytest.approx(1.0)
    assert registry.counters["blocks"] == 1
