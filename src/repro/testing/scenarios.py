"""Declarative fault injection and exact-detection scenario running.

A :class:`Scenario` adds :class:`~repro.simulation.faults.FaultSpec`
entries (validation outage windows, inflated internal-builder bids,
MEV-filter miss-rate spikes, sanctions-lag overrides, dropped payloads,
builder crashes, stale timestamps, ePBS withholding, reneging and PTC
equivocation) to a seeded config's fault plan, runs it, and then asserts
that the invariant oracles plus the detection pass flag **exactly** the
injected anomalies: every expected detection key must be new relative to
the unperturbed baseline (or strictly larger, for counting metrics), and
no unexpected key may appear.

Scenarios are plain dataclasses: a new one composes ``FaultSpec`` tuples
(see DESIGN.md §7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..beacon.builders import SLASH_REASON_RENEGING, SLASH_REASON_WITHHELD
from ..constants import MERGE_DATE, MERGE_SLOT
from ..core.auction import MODE_FALLBACK
from ..core.builder import gross_overclaim_boundary
from ..core.policies import MevFilterPolicy
from ..datasets.collector import StudyDataset, collect_study_dataset
from ..errors import ScenarioError
from ..perf.artifacts import config_content_hash
from ..simulation.config import SimulationConfig, small_test_config
from ..simulation.faults import (
    FAULT_BID_RENEGING,
    FAULT_BUILDER_CRASH,
    FAULT_DROPPED_PAYLOAD,
    FAULT_INTERNAL_MISPROMISE,
    FAULT_MEV_FILTER_MISS,
    FAULT_PTC_EQUIVOCATION,
    FAULT_SANCTIONS_LAG,
    FAULT_VALIDATION_OUTAGE,
    FAULT_WITHHELD_PAYLOAD,
    FaultSpec,
)
from ..simulation.world import build_world
from .oracles import (
    KIND_INTERNAL_MISPROMISE,
    KIND_SANCTIONS_LAG,
    KIND_TIMESTAMP_BUG,
    KIND_VALIDATION_OUTAGE,
    OracleReport,
    run_oracles,
)


@dataclass
class Scenario:
    """A named perturbation of a seeded run."""

    name: str
    description: str
    faults: tuple[FaultSpec, ...]
    config_overrides: dict[str, Any] = field(default_factory=dict)

    def expected_keys(self) -> frozenset[tuple[str, str]]:
        return frozenset(spec.detection_key() for spec in self.faults)


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetectedAnomaly:
    """One anomaly the detection pass surfaced from run data."""

    kind: str
    target: str
    metric: float
    evidence: str


def _gross_overpromises(world, dataset: StudyDataset) -> list[DetectedAnomaly]:
    """Exploit-grade promised-vs-delivered gaps, per relay, attributed."""
    builders_by_pubkey = {
        pubkey: builder
        for builder in world.builders.values()
        for pubkey in builder.pubkeys
    }
    counts: dict[tuple[str, str], list[str]] = {}
    for obs in dataset.table.to_observations():
        if not obs.claimed_by_relay:
            continue
        delivered = obs.delivered_value_wei
        threshold = gross_overclaim_boundary(delivered)
        day = (obs.date - MERGE_DATE).days
        builder = builders_by_pubkey.get(obs.builder_pubkey)
        builder_name = builder.name if builder else "<unknown>"
        for relay_name, claimed in obs.claimed_by_relay.items():
            if claimed <= threshold:
                continue
            relay = world.relays.get(relay_name)
            if relay is not None and day in relay.validation_outage_days:
                key = (KIND_VALIDATION_OUTAGE, relay_name)
            elif (
                relay is not None
                and builder_name in relay.internal_builders
                and not relay.validates_internal_builders
            ):
                key = (KIND_INTERNAL_MISPROMISE, relay_name)
            else:
                # Unattributable exploit-grade overpromise: surfaced under
                # its own kind so the exactness check fails loudly.
                key = ("gross-overpromise", relay_name)
            counts.setdefault(key, []).append(
                f"block {obs.number}: {claimed} promised vs {delivered} "
                f"delivered by {builder_name}"
            )
    return [
        DetectedAnomaly(
            kind=kind,
            target=target,
            metric=float(len(evidence)),
            evidence="; ".join(evidence[:3]),
        )
        for (kind, target), evidence in counts.items()
    ]


def _filter_misses(world) -> list[DetectedAnomaly]:
    """Sandwich-carrying blocks a filter-announcing relay accepted.

    Reads the relay's own filter-miss trace
    (:attr:`~repro.core.relay.Relay.filter_missed_slots`): slots where the
    front-running filter detected a sandwich but the miss draw admitted
    it anyway.  Relay escrow is dropped once each slot resolves, so this
    ground-truth trace is the only durable record of misses on blocks
    that lost the auction elsewhere — the canonical delivered sandwiches
    the paper counts are a subset of it.
    """
    found: list[DetectedAnomaly] = []
    for relay_name, relay in world.relays.items():
        if relay.policy.mev_filter is not MevFilterPolicy.FRONTRUNNING:
            continue
        count = len(relay.filter_missed_slots)
        if count:
            found.append(
                DetectedAnomaly(
                    kind=FAULT_MEV_FILTER_MISS,
                    target=relay_name,
                    metric=float(count),
                    evidence=(
                        f"{count} sandwich-carrying submission(s) accepted "
                        f"by {relay_name} despite its front-running filter"
                    ),
                )
            )
    return found


def _dropped_payloads(world) -> list[DetectedAnomaly]:
    """Slots that fell back to local production inside drop windows."""
    drop_sets = {
        name: relay.drop_payload_slots
        for name, relay in world.relays.items()
        if relay.drop_payload_slots
    }
    if not drop_sets:
        return []
    all_slots = frozenset().union(*drop_sets.values())
    fallbacks = sum(
        1
        for rec in world.slot_records
        if rec.slot in all_slots and rec.mode == MODE_FALLBACK
    )
    if not fallbacks:
        return []
    distinct = set(drop_sets.values())
    if len(drop_sets) == len(world.relays) and len(distinct) == 1:
        target = "*"
    else:
        target = ",".join(sorted(drop_sets))
    return [
        DetectedAnomaly(
            kind=FAULT_DROPPED_PAYLOAD,
            target=target,
            metric=float(fallbacks),
            evidence=(
                f"{fallbacks} slot(s) fell back to local building inside "
                "payload-drop windows"
            ),
        )
    ]


def _submitted_on(world, pubkeys: set[str], day: int) -> bool:
    """Whether a builder with ``pubkeys`` submitted to a relay on ``day``."""
    bpd = world.config.blocks_per_day
    day_slots = range(MERGE_SLOT + day * bpd, MERGE_SLOT + (day + 1) * bpd)
    return any(
        rec.builder_pubkey in pubkeys and rec.slot in day_slots
        for relay in world.relays.values()
        for rec in relay.data.get_builder_blocks_received()
    )


def _builder_crashes(world, baseline) -> list[DetectedAnomaly]:
    """Crash days on which a builder went completely silent across relays.

    A day counts only if the builder submitted on it in ``baseline``, the
    unperturbed run: silence from a builder that would not have submitted
    anyway is no evidence of a crash.  Without a baseline no day counts.
    """
    found: list[DetectedAnomaly] = []
    if baseline is None:
        return found
    for builder in world.builders.values():
        if not builder.crash_days:
            continue
        pubkeys = set(builder.pubkeys)
        silent_days = sum(
            1
            for day in builder.crash_days
            if _submitted_on(baseline, pubkeys, day)
            and not _submitted_on(world, pubkeys, day)
        )
        if silent_days:
            found.append(
                DetectedAnomaly(
                    kind=FAULT_BUILDER_CRASH,
                    target=builder.name,
                    metric=float(silent_days),
                    evidence=(
                        f"{builder.name} submitted nothing to any relay on "
                        f"{silent_days} crash day(s)"
                    ),
                )
            )
    return found


def _oracle_attributions(report: OracleReport) -> list[DetectedAnomaly]:
    """Stale-OFAC leaks and stale-timestamp payloads the oracles attributed."""
    found: dict[tuple[str, str], list[str]] = {}
    for finding in report.anomalies:
        if finding.attributed_to[0] in (KIND_SANCTIONS_LAG, KIND_TIMESTAMP_BUG):
            found.setdefault(finding.attributed_to, []).append(finding.message)
    return [
        DetectedAnomaly(
            kind=kind,
            target=target,
            metric=float(len(messages)),
            evidence="; ".join(messages[:3]),
        )
        for (kind, target), messages in found.items()
    ]


def _epbs_faults(world) -> list[DetectedAnomaly]:
    """ePBS consensus-layer anomalies read from the builder ledger.

    Slashings are attributed to the offending builder by reason —
    withheld payloads and collateralised bid reneging — and PTC
    equivocations aggregate to the committee as a whole, since the
    committee has no sampled seats to attribute them to.
    """
    ledger = world.epbs_ledger
    if ledger is None:
        return []
    found: list[DetectedAnomaly] = []
    reason_kinds = {
        SLASH_REASON_WITHHELD: FAULT_WITHHELD_PAYLOAD,
        SLASH_REASON_RENEGING: FAULT_BID_RENEGING,
    }
    counts: dict[tuple[str, str], int] = {}
    for slashing in ledger.slashings:
        kind = reason_kinds.get(slashing.reason)
        if kind is None:  # pragma: no cover - only two reasons exist today
            continue
        key = (kind, slashing.builder)
        counts[key] = counts.get(key, 0) + 1
    for (kind, builder), count in sorted(counts.items()):
        found.append(
            DetectedAnomaly(
                kind=kind,
                target=builder,
                metric=float(count),
                evidence=(
                    f"{builder} slashed {count} time(s) for "
                    f"{'withholding a payload' if kind == FAULT_WITHHELD_PAYLOAD else 'reneging on its bid'}"
                ),
            )
        )
    equivocations = sum(rec.ptc_equivocations for rec in ledger.slots)
    if equivocations:
        found.append(
            DetectedAnomaly(
                kind=FAULT_PTC_EQUIVOCATION,
                target="committee",
                metric=float(equivocations),
                evidence=(
                    f"{equivocations} payload-timeliness votes equivocated "
                    "across the run"
                ),
            )
        )
    return found


def detect_anomalies(
    world,
    dataset: StudyDataset | None = None,
    report: OracleReport | None = None,
    baseline=None,
) -> dict[tuple[str, str], DetectedAnomaly]:
    """All anomalies detectable from a finished run, keyed by (kind, target).

    This is the "analysis layer saw it" half of scenario verification:
    gross overpromise scans mirror Table 4's promised-vs-delivered gap,
    filter-miss counts mirror the bloXroute sandwich count, sanctions
    lags and stale-timestamp payloads come from the oracles, and
    drop/crash detectors read the relay data APIs.  ``baseline`` is the
    unperturbed world the crash detector compares against.
    """
    if dataset is None:
        dataset = collect_study_dataset(world)
    if report is None:
        report = run_oracles(world, dataset)
    detected: list[DetectedAnomaly] = []
    detected.extend(_gross_overpromises(world, dataset))
    detected.extend(_filter_misses(world))
    detected.extend(_dropped_payloads(world))
    detected.extend(_builder_crashes(world, baseline))
    detected.extend(_oracle_attributions(report))
    detected.extend(_epbs_faults(world))
    return {(a.kind, a.target): a for a in detected}


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


@dataclass
class RunArtifacts:
    """Everything one seeded run yields for verification."""

    world: Any
    dataset: StudyDataset
    report: OracleReport
    anomalies: dict[tuple[str, str], DetectedAnomaly]
    digest: str


@dataclass
class ScenarioResult:
    """A scenario's perturbed run next to its unperturbed baseline."""

    scenario: Scenario
    baseline: RunArtifacts
    perturbed: RunArtifacts

    def problems(self) -> list[str]:
        """Every way this scenario failed exact detection (empty = pass)."""
        problems: list[str] = []
        if self.baseline.report.violations:
            problems.append(
                f"baseline run has {len(self.baseline.report.violations)} "
                "oracle violation(s) — the clean seed must be clean"
            )
        if self.perturbed.report.violations:
            problems.append(
                f"perturbed run has {len(self.perturbed.report.violations)} "
                "oracle violation(s) — injected faults must be attributable: "
                + "; ".join(
                    f.message for f in self.perturbed.report.violations[:3]
                )
            )
        expected = self.scenario.expected_keys()
        baseline_keys = set(self.baseline.anomalies)
        perturbed_keys = set(self.perturbed.anomalies)
        for key in sorted(expected):
            if key not in perturbed_keys:
                problems.append(f"expected anomaly {key} was not detected")
            elif key in baseline_keys:
                before = self.baseline.anomalies[key].metric
                after = self.perturbed.anomalies[key].metric
                if after <= before:
                    problems.append(
                        f"anomaly {key} metric did not increase "
                        f"({before} -> {after})"
                    )
        unexpected = (perturbed_keys - baseline_keys) - expected
        for key in sorted(unexpected):
            problems.append(
                f"unexpected anomaly {key}: "
                f"{self.perturbed.anomalies[key].evidence}"
            )
        return problems

    @property
    def ok(self) -> bool:
        return not self.problems()

    def assert_detected(self) -> None:
        problems = self.problems()
        if problems:
            raise ScenarioError(
                f"scenario {self.scenario.name!r} failed exact detection:\n"
                + "\n".join(f"- {p}" for p in problems)
            )


class ScenarioRunner:
    """Runs scenarios against cached unperturbed baselines.

    Baselines are keyed by the config content hash, so scenarios sharing
    the same overrides (usually none) share one clean run.
    """

    def __init__(self, base_config: SimulationConfig | None = None) -> None:
        self.base_config = base_config or small_test_config()
        self._baselines: dict[str, RunArtifacts] = {}

    def config_for(self, scenario: Scenario) -> SimulationConfig:
        if not scenario.config_overrides:
            return self.base_config
        return self.base_config.with_overrides(**scenario.config_overrides)

    def _execute(self, config: SimulationConfig, baseline=None) -> RunArtifacts:
        world = build_world(config).run()
        dataset = collect_study_dataset(world)
        report = run_oracles(world, dataset)
        anomalies = detect_anomalies(world, dataset, report, baseline)
        return RunArtifacts(
            world=world,
            dataset=dataset,
            report=report,
            anomalies=anomalies,
            digest=world.digest(),
        )

    def baseline_for(self, config: SimulationConfig) -> RunArtifacts:
        key = config_content_hash(config)
        if key not in self._baselines:
            self._baselines[key] = self._execute(config)
        return self._baselines[key]

    def seed_baseline(self, config: SimulationConfig, artifacts: RunArtifacts) -> None:
        """Pre-register a baseline (e.g. a session-scoped fixture world)."""
        self._baselines[config_content_hash(config)] = artifacts

    def run(self, scenario: Scenario) -> ScenarioResult:
        config = self.config_for(scenario)
        baseline = self.baseline_for(config)
        perturbed = self._execute(
            config.with_overrides(faults=config.faults + scenario.faults),
            baseline.world,
        )
        return ScenarioResult(
            scenario=scenario, baseline=baseline, perturbed=perturbed
        )


def default_scenarios() -> list[Scenario]:
    """The standard nine-fault matrix over the small test world.

    Fault days sit late in the 12-day window (relay menus only open up
    from day 8, and the seeded incident days all lie outside it).  The
    clean baseline carries no detection keys except the always-on
    bloXroute filter misses, whose metric the collapse scenario must
    strictly raise.
    """
    return [
        Scenario(
            name="manifold-style-validation-outage",
            description=(
                "A relay stops validating payments for a day while a "
                "builder submits exploit-grade claims to it — the "
                "2022-10-15 Manifold incident shape."
            ),
            faults=(
                FaultSpec(
                    kind=FAULT_VALIDATION_OUTAGE,
                    target="Manifold",
                    day=10,
                    builder="Builder 3",
                    claim_eth=2.0,
                ),
            ),
        ),
        Scenario(
            name="eden-style-internal-mispromise",
            description=(
                "A relay's own unvalidated builder promises far more than "
                "it pays — the 278-ETH Eden mispromise shape."
            ),
            faults=(
                FaultSpec(
                    kind=FAULT_INTERNAL_MISPROMISE,
                    target="Eden",
                    day=10,
                    builder="Eden",
                    claim_eth=2.0,
                ),
            ),
        ),
        Scenario(
            name="bloxroute-style-filter-collapse",
            description=(
                "The announced front-running filter misses everything; "
                "sandwich submissions accepted by the relay must rise."
            ),
            faults=(
                FaultSpec(
                    kind=FAULT_MEV_FILTER_MISS,
                    target="bloXroute (E)",
                    rate=1.0,
                ),
            ),
        ),
        Scenario(
            name="stale-ofac-copy",
            description=(
                "A compliant relay's sanctions list lags three months; "
                "sanctioned flow leaks through it — the Flashbots "
                "February-2023 lag shape."
            ),
            faults=(
                FaultSpec(
                    kind=FAULT_SANCTIONS_LAG,
                    target="Flashbots",
                    lag_days=90,
                ),
            ),
            config_overrides={"sanctioned_tx_rate": 0.5, "blocks_per_day": 16},
        ),
        Scenario(
            name="payload-drop-day",
            description=(
                "Every relay loses its escrowed payloads for a day after "
                "serving headers; signed slots must fall back to local "
                "production."
            ),
            faults=(
                FaultSpec(kind=FAULT_DROPPED_PAYLOAD, target="*", day=9),
            ),
        ),
        Scenario(
            name="builder-crash-mid-window",
            description=(
                "A major builder goes dark for a day; its submissions "
                "vanish from every relay's data API."
            ),
            faults=(
                FaultSpec(kind=FAULT_BUILDER_CRASH, target="Flashbots", day=9),
            ),
        ),
        Scenario(
            name="epbs-withheld-payload",
            description=(
                "A staked builder wins the commit phase with an inflated "
                "bid, then never reveals; the protocol charges the bid "
                "from escrow and slashes the builder's collateral."
            ),
            faults=(
                FaultSpec(
                    kind=FAULT_WITHHELD_PAYLOAD,
                    target="Builder 1",
                    day=9,
                    claim_eth=2.0,
                ),
            ),
            config_overrides={"regime": "epbs"},
        ),
        Scenario(
            name="epbs-bid-reneging",
            description=(
                "A staked builder commits to an exploit-grade bid its "
                "payload cannot pay; settlement draws the shortfall from "
                "collateral and slashes the gross reneger."
            ),
            faults=(
                FaultSpec(
                    kind=FAULT_BID_RENEGING,
                    target="Builder 3",
                    day=9,
                    claim_eth=2.0,
                ),
            ),
            config_overrides={"regime": "epbs"},
        ),
        Scenario(
            name="epbs-ptc-equivocation",
            description=(
                "The payload-timeliness committee equivocates wholesale "
                "for a day; reveals lose quorum and slots go empty with "
                "unconditional payment."
            ),
            faults=(
                FaultSpec(
                    kind=FAULT_PTC_EQUIVOCATION,
                    target="committee",
                    day=10,
                    rate=1.0,
                ),
            ),
            config_overrides={"regime": "epbs"},
        ),
    ]
