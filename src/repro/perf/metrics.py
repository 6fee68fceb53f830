"""Lightweight perf instrumentation: named timers and counters.

A :class:`PerfRegistry` is attached to every world (``world.perf``) and
threaded into the slot context so the auction layers can attribute time to
phases (workload injection, bundle search, builder phase, proposer phase)
without global state.  Overhead is one ``perf_counter`` pair per timed
section, so it stays on even in production runs.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Iterator


class PerfRegistry:
    """Accumulates named wall-clock timers and event counters."""

    def __init__(self) -> None:
        self.timers: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a ``with`` block under ``name`` (accumulates across calls)."""
        start = perf_counter()
        try:
            yield
        finally:
            self.timers[name] += perf_counter() - start

    def add(self, name: str, count: int = 1) -> None:
        self.counters[name] += count

    def share(self, part: str, whole: str) -> float:
        """Fraction of ``whole``'s time spent in ``part`` (0 when unknown)."""
        total = self.timers.get(whole, 0.0)
        if total <= 0.0:
            return 0.0
        return self.timers.get(part, 0.0) / total

    def snapshot(self) -> dict:
        """A JSON-ready copy of every timer and counter."""
        return {
            "timers_seconds": dict(self.timers),
            "counters": dict(self.counters),
        }

    def merge_snapshot(self, snapshot: dict) -> None:
        """Fold a :meth:`snapshot` payload into this registry.

        The cross-process aggregation path: worker processes ship plain
        ``snapshot()`` dicts back with their segment deltas, and the
        parent folds them in here — so ratios like ``builder_phase_share``
        stay accurate under sharding (every worker's builder-phase seconds
        and slot-loop seconds are summed before the division).
        """
        for name, value in snapshot.get("timers_seconds", {}).items():
            self.timers[name] += float(value)
        for name, value in snapshot.get("counters", {}).items():
            self.counters[name] += int(value)
