"""Fault plans: the paper's incidents and injected faults as config data.

A :class:`FaultSpec` names one fault: its kind, the relay or builder it
targets, the study day it fires on, and its knobs.
``SimulationConfig.faults`` holds a tuple of them, by default
:data:`PAPER_INCIDENTS` (the relay-trust breaks of the paper's Table 4),
and ``World.__init__`` seeds each one into the built world with
:func:`apply_fault`.  Because the plan is config data, every epoch
segment and the artifact key see it like any other field.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..constants import MERGE_SLOT
from ..core.policies import MevFilterPolicy
from ..errors import ScenarioError
from ..types import ether
from .events import default_timeline

# Fault kinds (the scenario vocabulary).
FAULT_VALIDATION_OUTAGE = "validation-outage"
FAULT_INTERNAL_MISPROMISE = "internal-builder-mispromise"
FAULT_SCRIPTED_MISPROMISE = "scripted-mispromise"
FAULT_TIMESTAMP_BUG = "timestamp-bug"
FAULT_MEV_FILTER_MISS = "mev-filter-miss"
FAULT_SANCTIONS_LAG = "sanctions-lag"
FAULT_DROPPED_PAYLOAD = "dropped-payload"
FAULT_BUILDER_CRASH = "builder-crash"
# ePBS faults (require ``regime="epbs"``): a staked builder withholding
# its committed payload, a builder grossly reneging on its bid against
# collateral, and payload-timeliness-committee equivocation.
FAULT_WITHHELD_PAYLOAD = "withheld-payload"
FAULT_BID_RENEGING = "bid-reneging"
FAULT_PTC_EQUIVOCATION = "ptc-equivocation"

FAULT_KINDS = frozenset(
    {
        FAULT_VALIDATION_OUTAGE,
        FAULT_INTERNAL_MISPROMISE,
        FAULT_SCRIPTED_MISPROMISE,
        FAULT_TIMESTAMP_BUG,
        FAULT_MEV_FILTER_MISS,
        FAULT_SANCTIONS_LAG,
        FAULT_DROPPED_PAYLOAD,
        FAULT_BUILDER_CRASH,
        FAULT_WITHHELD_PAYLOAD,
        FAULT_BID_RENEGING,
        FAULT_PTC_EQUIVOCATION,
    }
)

#: What Eden actually paid on its mispriced block, block 15,703,347 (ETH).
SCRIPTED_MISPROMISE_PAID_ETH = 0.16


@dataclass(frozen=True)
class FaultSpec:
    """One fault.

    ``target`` names the relay (or ``"*"`` for all relays with
    ``dropped-payload``), or the builder with ``builder-crash``,
    ``scripted-mispromise``, ``timestamp-bug`` and the ePBS builder
    faults; ``builder`` optionally names the exploiting builder for the
    claim-inflating faults; ``day`` is the study-day index the fault
    fires on (``mev-filter-miss`` and ``sanctions-lag`` apply to the
    whole run).
    """

    kind: str
    target: str
    day: int = 0
    rate: float = 1.0
    lag_days: int = 90
    claim_eth: float = 2.0
    builder: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ScenarioError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {sorted(FAULT_KINDS)}"
            )

    def detection_key(self) -> tuple[str, str]:
        """The (kind, target) pair detection must surface for this fault."""
        return (self.kind, self.target)


_TIMELINE = default_timeline()

#: The default fault plan: the paper's dated relay-trust breaks.
PAPER_INCIDENTS: tuple[FaultSpec, ...] = (
    # 2022-10-08, block 15,703,347: Eden's own builder promises far more
    # than the 0.16 ETH it pays.
    FaultSpec(
        kind=FAULT_SCRIPTED_MISPROMISE,
        target="Eden",
        day=_TIMELINE.eden_mispromise_day,
        claim_eth=0.8,
    ),
    # 2022-10-15: Manifold stops validating payments while Builder 2
    # claims max(50x its payment, 1 ETH) to it.
    FaultSpec(
        kind=FAULT_VALIDATION_OUTAGE,
        target="Manifold",
        day=_TIMELINE.manifold_incident_day,
        builder="Builder 2",
        claim_eth=1.0,
    ),
    # 2022-11-10: builder0x69 seals blocks with a stale timestamp.
    FaultSpec(
        kind=FAULT_TIMESTAMP_BUG,
        target="builder0x69",
        day=_TIMELINE.timestamp_bug_day,
    ),
)


def _relay_or_raise(world, name: str):
    relay = world.relays.get(name)
    if relay is None:
        raise ScenarioError(
            f"unknown relay {name!r}; have {sorted(world.relays)}"
        )
    return relay


def _builder_or_raise(world, name: str):
    builder = world.builders.get(name)
    if builder is None:
        raise ScenarioError(
            f"unknown builder {name!r}; have {sorted(world.builders)[:10]}..."
        )
    return builder


def _require_epbs(world, kind: str) -> None:
    if world.config.regime != "epbs":
        raise ScenarioError(
            f"{kind} faults need regime='epbs' "
            f"(world runs {world.config.regime!r}); add "
            "config_overrides={'regime': 'epbs'} to the scenario"
        )


def apply_fault(world, spec: FaultSpec) -> None:
    """Seed one fault into a built (not yet run) world."""
    if spec.kind in (FAULT_VALIDATION_OUTAGE, FAULT_INTERNAL_MISPROMISE):
        # A relay that stops checking one builder's payments, and that
        # builder claiming max(50x its payment, the floor) to it that day.
        relay = _relay_or_raise(world, spec.target)
        if spec.kind == FAULT_VALIDATION_OUTAGE:
            relay.validation_outage_days = relay.validation_outage_days | {spec.day}
            builder_name = spec.builder or "Builder 3"
        else:
            internal = sorted(relay.internal_builders)
            builder_name = spec.builder or next(iter(internal), "")
            if builder_name not in relay.internal_builders:
                raise ScenarioError(
                    f"{builder_name!r} is not an internal builder of "
                    f"{spec.target} ({internal})"
                )
            relay.validates_internal_builders = False
        builder = _builder_or_raise(world, builder_name)
        floors = builder.claim_inflation.setdefault(spec.day, {})
        floors[spec.target] = max(floors.get(spec.target, 0), ether(spec.claim_eth))
    elif spec.kind == FAULT_SCRIPTED_MISPROMISE:
        builder = _builder_or_raise(world, spec.target)
        # The single mispriced block should account for ~6% of Eden's
        # expected promised value over the whole window (the paper's 93.8%
        # delivered share), whatever the world size.
        config = world.config
        expected_total = config.num_days * config.blocks_per_day * 0.02 * 0.06
        claimed = ether(max(spec.claim_eth, 0.062 * expected_total / 0.93))
        paid = ether(SCRIPTED_MISPROMISE_PAID_ETH)
        builder.scripted_mispromise[spec.day] = (claimed, paid)
    elif spec.kind == FAULT_TIMESTAMP_BUG:
        builder = _builder_or_raise(world, spec.target)
        builder.timestamp_bug_days = builder.timestamp_bug_days | {spec.day}
    elif spec.kind == FAULT_MEV_FILTER_MISS:
        relay = _relay_or_raise(world, spec.target)
        if relay.policy.mev_filter is not MevFilterPolicy.FRONTRUNNING:
            raise ScenarioError(
                f"{spec.target} announces no front-running filter to degrade"
            )
        relay.mev_filter_miss_rate = spec.rate
    elif spec.kind == FAULT_SANCTIONS_LAG:
        relay = _relay_or_raise(world, spec.target)
        if not relay.policy.is_censoring:
            raise ScenarioError(
                f"{spec.target} is not compliant; a stale OFAC copy changes "
                "nothing"
            )
        relay.sanctions_lag_days = spec.lag_days
    elif spec.kind == FAULT_DROPPED_PAYLOAD:
        bpd = world.config.blocks_per_day
        slots = frozenset(
            MERGE_SLOT + spec.day * bpd + index for index in range(bpd)
        )
        targets = (
            list(world.relays.values())
            if spec.target == "*"
            else [_relay_or_raise(world, spec.target)]
        )
        for relay in targets:
            relay.drop_payload_slots = relay.drop_payload_slots | slots
    elif spec.kind == FAULT_BUILDER_CRASH:
        builder = _builder_or_raise(world, spec.builder or spec.target)
        builder.crash_days = builder.crash_days | {spec.day}
    elif spec.kind in (FAULT_WITHHELD_PAYLOAD, FAULT_BID_RENEGING):
        _require_epbs(world, spec.kind)
        builder = _builder_or_raise(world, spec.builder or spec.target)
        claims = (
            builder.withhold_claims
            if spec.kind == FAULT_WITHHELD_PAYLOAD
            else builder.renege_claims
        )
        claims[spec.day] = max(claims.get(spec.day, 0), ether(spec.claim_eth))
    elif spec.kind == FAULT_PTC_EQUIVOCATION:
        _require_epbs(world, spec.kind)
        world.auction.ptc_equivocation[spec.day] = spec.rate
    else:  # pragma: no cover - guarded by FaultSpec.__post_init__
        raise ScenarioError(f"unhandled fault kind {spec.kind!r}")
