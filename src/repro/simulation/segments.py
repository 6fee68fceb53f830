"""Epoch segments: the checkpointable unit of a sharded simulation.

A segmented run partitions the study window into contiguous day ranges
(:func:`segment_plan`).  Each :class:`SegmentSpec` fully determines one
independent sub-simulation: the day range, the absolute slot/block
offsets, and the RNG streams (derived from the root seed and the segment
index, never from the worker that happens to execute it).  Running a
segment produces a :class:`SegmentDelta` — a picklable, explicit state
delta holding everything downstream consumers need: the segment world's
digest, its collected :class:`~repro.datasets.collector.StudyDataset`,
its perf snapshot, and its oracle verdict.

Because a segment is a pure function of ``(config, spec)``, segments can
execute in any order on any number of processes and the ordered merge
(:mod:`repro.perf.sharding`) reproduces a bit-identical result — the
property the differential replay matrix enforces.

Segmentation semantics: segments are independent by construction.  Each
segment re-derives its starting economic state (funding, lending book,
mempool) from the root seed exactly like a fresh world, re-anchored at
its first day; populations (validators, builders, relays, network) and
the proposer schedule are shared — they derive from the root seed alone,
so every segment sees the same actors.  A ``segment_days = 0`` config
has a single full-range segment and is bit-identical to the legacy
unsegmented run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..datasets.collector import StudyDataset
    from .config import SimulationConfig

#: Salt mixed into per-segment RNG stream derivation so segment streams
#: can never collide with the root-seed streams used for populations.
SEGMENT_STREAM_SALT = 0x5E63_3E47


@dataclass(frozen=True)
class SegmentSpec:
    """One epoch segment of a simulated world (a pure plan entry)."""

    index: int
    num_segments: int
    day_start: int
    day_end: int  # exclusive

    @property
    def num_days(self) -> int:
        return self.day_end - self.day_start

    @property
    def covers_all(self) -> bool:
        """True for the degenerate single-segment (legacy) plan."""
        return self.num_segments == 1 and self.day_start == 0


def segment_plan(config: "SimulationConfig") -> tuple[SegmentSpec, ...]:
    """The epoch-segment partition of ``config``'s study window.

    Depends only on ``(num_days, segment_days)`` — never on worker
    counts — so every execution strategy shares one plan and one merged
    digest.  ``segment_days <= 0`` yields the single full-range segment.
    """
    segment_days = config.segment_days
    num_days = config.num_days
    if segment_days <= 0 or segment_days >= num_days:
        return (
            SegmentSpec(index=0, num_segments=1, day_start=0, day_end=num_days),
        )
    bounds = list(range(0, num_days, segment_days)) + [num_days]
    count = len(bounds) - 1
    return tuple(
        SegmentSpec(
            index=index,
            num_segments=count,
            day_start=bounds[index],
            day_end=bounds[index + 1],
        )
        for index in range(count)
    )


@dataclass
class SegmentDelta:
    """The serializable outcome of one executed segment.

    This is the unit that crosses process boundaries: everything in it is
    plain data (dataclasses, dicts, lists) so it pickles cleanly, and it
    is sufficient to merge — no live ``World`` ever leaves its worker.
    """

    spec: SegmentSpec
    #: The segment world's own ``World.digest()`` — the per-segment leaf
    #: of the merged run digest.
    world_digest: str
    #: The segment's collected study dataset (merged downstream).
    dataset: "StudyDataset"
    #: ``PerfRegistry.snapshot()`` of the segment's worker-side registry.
    perf_snapshot: dict = field(default_factory=dict)
    #: Invariant-oracle violation count, or None when oracles were skipped.
    oracle_violations: int | None = None


def run_segment(
    config: "SimulationConfig",
    spec: SegmentSpec,
    check_oracles: bool = False,
) -> SegmentDelta:
    """Execute one segment to completion and package its state delta.

    A pure function of its arguments (the config's fault plan included):
    the worker builds the segment's world, runs its day range, collects
    the dataset, and optionally runs the invariant oracles — all inside
    the calling process, so a process-pool worker ships back only the
    delta.
    """
    from ..datasets.collector import collect_study_dataset
    from .world import World

    if spec.day_end > config.num_days or spec.day_start < 0:
        raise ConfigError(
            f"segment {spec.index} range [{spec.day_start}, {spec.day_end}) "
            f"falls outside the {config.num_days}-day window"
        )
    world = World(config, segment=spec).run()
    dataset = collect_study_dataset(world)
    violations: int | None = None
    if check_oracles:
        from ..testing.oracles import run_oracles

        violations = len(run_oracles(world, dataset).violations)
    return SegmentDelta(
        spec=spec,
        world_digest=world.digest(),
        dataset=dataset,
        perf_snapshot=world.perf.snapshot(),
        oracle_violations=violations,
    )
