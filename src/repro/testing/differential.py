"""Differential replay: one seeded scenario, every perf configuration.

The simulator's performance knob, process-sharded epoch segments,
promises to never change simulated outcomes.  This module turns that
promise into a reusable matrix: the same seeded config (its fault plan
included) is re-run under each :class:`ReplayCase`
and every run must produce a bit-identical world digest, a bit-identical
collected dataset digest, and an oracle-violation-free result.  The
artifact cache is exercised too: a cold save followed by a warm load
must round-trip the dataset digest exactly.

Cases carry a *digest group*: all cases in a group must agree with each
other.  The ``default`` group is the legacy unsegmented run; the
``sharded`` group covers the epoch-segment plan under every
process-worker count (``shard_workers`` ∈ {1, 2, 4}).  Segmentation
legitimately re-derives per-segment RNG streams, so the two groups
describe two (each internally bit-identical) worlds — the sharded
invariant is that worker count never matters for a fixed segment plan.
The shared execution cache has no knob: the determinism tests prove it
inert by running the same worlds with it replaced by direct execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..errors import ConformanceError
from ..perf.artifacts import load_study_artifact, save_study_artifact
from ..perf.sharding import run_sharded
from ..simulation.config import SimulationConfig

GROUP_DEFAULT = "default"
GROUP_SHARDED = "sharded"


@dataclass(frozen=True)
class ReplayCase:
    """One perf configuration of the replay matrix."""

    name: str
    overrides: tuple[tuple[str, Any], ...] = ()
    #: Digest-equality group: cases compare only against their group's
    #: first case.  Segmented plans form their own group because their
    #: per-segment RNG streams legitimately differ from the legacy run.
    group: str = GROUP_DEFAULT


#: The shipped matrix: the reference run.
DEFAULT_CASES: tuple[ReplayCase, ...] = (ReplayCase(name="reference"),)


def sharded_cases(segment_days: int) -> tuple[ReplayCase, ...]:
    """The process-sharding wing of the matrix for one segment plan.

    One fixed ``segment_days`` across every case — the plan must be
    identical or the digests have no reason to agree — crossed with
    process-worker counts {1, 2, 4}.
    """
    if segment_days <= 0:
        raise ConformanceError("sharded cases need segment_days > 0")
    seg = ("segment_days", segment_days)
    return (
        ReplayCase(
            name="sharded-serial", overrides=(seg,), group=GROUP_SHARDED
        ),
        ReplayCase(
            name="sharded-workers-2",
            overrides=(seg, ("shard_workers", 2)),
            group=GROUP_SHARDED,
        ),
        ReplayCase(
            name="sharded-workers-4",
            overrides=(seg, ("shard_workers", 4)),
            group=GROUP_SHARDED,
        ),
    )


def regime_cases(segment_days: int) -> tuple[ReplayCase, ...]:
    """The regime wing of the matrix: ePBS and local-only worlds.

    Each regime is its own digest group — the three regimes simulate
    genuinely different protocols — and within a group the sharded
    worker count {1, 2, 4} must never matter.  (The ``mev_boost``
    regime is the base matrix above.)
    """
    if segment_days <= 0:
        raise ConformanceError("regime cases need segment_days > 0")
    seg = ("segment_days", segment_days)
    cases: list[ReplayCase] = []
    for regime in ("epbs", "local"):
        base = (seg, ("regime", regime))
        group = f"regime-{regime}"
        for workers in (1, 2, 4):
            cases.append(
                ReplayCase(
                    name=f"{group}-workers-{workers}",
                    overrides=base + (("shard_workers", workers),),
                    group=group,
                )
            )
    return tuple(cases)


@dataclass(frozen=True)
class CaseResult:
    """Digests and oracle outcome of one matrix cell."""

    case: ReplayCase
    world_digest: str
    dataset_digest: str
    oracle_violations: int


@dataclass
class ReplayReport:
    """Everything the matrix produced, plus the consistency verdict."""

    config: SimulationConfig
    results: tuple[CaseResult, ...]
    #: Dataset digest after a cold artifact save + warm load round-trip,
    #: per digest group (empty when no artifact directory was provided).
    #: Every entry must match its group's reference digest.
    artifact_roundtrip_digests: dict[str, str] = field(default_factory=dict)

    def _grouped(self) -> dict[str, list[CaseResult]]:
        groups: dict[str, list[CaseResult]] = {}
        for result in self.results:
            groups.setdefault(result.case.group, []).append(result)
        return groups

    def problems(self) -> list[str]:
        problems: list[str] = []
        if not self.results:
            return ["replay matrix ran no cases"]
        for group, results in self._grouped().items():
            reference = results[0]
            for result in results[1:]:
                if result.world_digest != reference.world_digest:
                    problems.append(
                        f"case {result.case.name!r} world digest diverged "
                        f"from {reference.case.name!r} (group {group!r})"
                    )
                if result.dataset_digest != reference.dataset_digest:
                    problems.append(
                        f"case {result.case.name!r} dataset digest diverged "
                        f"from {reference.case.name!r} (group {group!r})"
                    )
            roundtrip = self.artifact_roundtrip_digests.get(group)
            if roundtrip is not None and roundtrip != reference.dataset_digest:
                problems.append(
                    f"artifact cache round-trip changed the dataset digest "
                    f"(group {group!r})"
                )
        for result in self.results:
            if result.oracle_violations:
                problems.append(
                    f"case {result.case.name!r} has "
                    f"{result.oracle_violations} oracle violation(s)"
                )
        return problems

    @property
    def ok(self) -> bool:
        return not self.problems()

    def assert_consistent(self) -> None:
        problems = self.problems()
        if problems:
            raise ConformanceError(
                "differential replay matrix failed:\n"
                + "\n".join(f"- {p}" for p in problems)
            )


def _run_case(case_config: SimulationConfig, check_oracles: bool):
    """Execute one matrix cell; returns (world digest, dataset, violations).

    Every cell runs through the sharded executor.  A one-segment plan
    passes its world digest and dataset through unchanged, and serial
    segmented execution must match process-pooled execution bit for bit.
    """
    run = run_sharded(case_config, check_oracles=check_oracles)
    return run.digest(), run.dataset, run.oracle_violations or 0


def run_replay_matrix(
    config: SimulationConfig,
    cases: tuple[ReplayCase, ...] = DEFAULT_CASES,
    artifact_dir: Path | None = None,
    check_oracles: bool = True,
) -> ReplayReport:
    """Run ``config`` under every case; collect digests and oracle results.

    The config's fault plan travels with it into every case (and every
    segment worker of a sharded case), so fault-injection scenarios are
    covered by the same determinism guarantee as clean runs.  When
    ``artifact_dir`` is given, the first case of every digest group has
    its dataset saved cold and re-loaded warm, and the round-trip digest
    is recorded for :meth:`ReplayReport.problems` to compare.
    """
    results: list[CaseResult] = []
    roundtrips: dict[str, str] = {}
    for case in cases:
        case_config = (
            config.with_overrides(**dict(case.overrides))
            if case.overrides
            else config
        )
        world_digest, dataset, violations = _run_case(case_config, check_oracles)
        results.append(
            CaseResult(
                case=case,
                world_digest=world_digest,
                dataset_digest=dataset.content_digest(),
                oracle_violations=violations,
            )
        )
        if artifact_dir is not None and case.group not in roundtrips:
            save_study_artifact(case_config, dataset, cache_dir=artifact_dir)
            reloaded = load_study_artifact(case_config, cache_dir=artifact_dir)
            roundtrips[case.group] = (
                reloaded.content_digest() if reloaded is not None else "<miss>"
            )
    return ReplayReport(
        config=config,
        results=tuple(results),
        artifact_roundtrip_digests=roundtrips,
    )
