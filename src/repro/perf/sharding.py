"""Process-sharded epoch-segment execution with deterministic merge.

Whole epoch segments (:mod:`repro.simulation.segments`) execute in worker
*processes* and ship back serializable
:class:`~repro.simulation.segments.SegmentDelta` objects.  The merge is
deterministic by construction:

* the segment plan is a pure function of the config (never the worker
  count), so every strategy executes the same segments;
* each segment's randomness derives from ``(seed, segment_index)``, so
  placement and scheduling cannot perturb draws;
* deltas are merged in segment-index order regardless of completion
  order — datasets concatenate, relay stores and MEV labels absorb, perf
  registries aggregate, and the run digest hashes the ordered per-segment
  digests.

``run_sharded`` therefore yields a bit-identical
:class:`ShardedRun` for a given config at any ``shard_workers`` setting —
the contract the differential replay matrix enforces.  A config with
``segment_days = 0`` degenerates to the single legacy segment, and its
run digest equals the legacy ``World.digest()`` exactly.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .metrics import PerfRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datasets.collector import StudyDataset
    from ..simulation.config import SimulationConfig
    from ..simulation.segments import SegmentDelta, SegmentSpec


def _fork_aware_context():
    """Prefer ``fork`` (cheap, instant workers on POSIX), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def _segment_task(
    config: "SimulationConfig", spec: "SegmentSpec", check_oracles: bool
) -> "SegmentDelta":
    """Module-level worker entry point (picklable by reference)."""
    from ..simulation.segments import run_segment

    return run_segment(config, spec, check_oracles=check_oracles)


@dataclass
class ShardedRun:
    """The merged outcome of a (possibly sharded) segmented simulation."""

    config: "SimulationConfig"
    deltas: "tuple[SegmentDelta, ...]"
    dataset: "StudyDataset"
    perf: PerfRegistry

    def digest(self) -> str:
        """The run fingerprint: ordered per-segment world digests, hashed.

        A single-segment plan passes its world digest through unchanged,
        so an unsegmented sharded run is digest-compatible with the
        legacy ``World.digest()``.
        """
        if len(self.deltas) == 1:
            return self.deltas[0].world_digest
        hasher = hashlib.sha256()
        for delta in self.deltas:
            hasher.update(
                f"seg|{delta.spec.index}|{delta.world_digest}".encode()
            )
        return hasher.hexdigest()

    @property
    def oracle_violations(self) -> int | None:
        """Total oracle violations, or None when oracles were skipped."""
        counts = [delta.oracle_violations for delta in self.deltas]
        if any(count is None for count in counts):
            return None
        return sum(counts)

    @property
    def blocks(self) -> int:
        return self.dataset.inventory.blocks


def run_sharded(
    config: "SimulationConfig", check_oracles: bool = False
) -> ShardedRun:
    """Execute ``config``'s segment plan and deterministically merge it.

    Segments run in-process when ``config.shard_workers == 1`` (or the
    plan has one segment), otherwise across a fork-aware process pool
    that is created and shut down inside this call.
    """
    from ..datasets.collector import merge_study_datasets
    from ..simulation.segments import run_segment, segment_plan

    plan = segment_plan(config)
    workers = min(config.shard_workers, len(plan))
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, mp_context=_fork_aware_context()
        ) as executor:
            futures = [
                executor.submit(_segment_task, config, spec, check_oracles)
                for spec in plan
            ]
            # Gather in submission (= segment-index) order: completion
            # order is scheduling noise the merge must never observe.
            deltas = tuple(future.result() for future in futures)
    else:
        deltas = tuple(
            run_segment(config, spec, check_oracles=check_oracles)
            for spec in plan
        )

    perf = PerfRegistry()
    for delta in deltas:
        perf.merge_snapshot(delta.perf_snapshot)
    dataset = merge_study_datasets([delta.dataset for delta in deltas])
    return ShardedRun(config=config, deltas=deltas, dataset=dataset, perf=perf)


def host_cpu_count() -> int:
    """CPUs usable by this process (affinity-aware when available)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-POSIX
        return os.cpu_count() or 1
