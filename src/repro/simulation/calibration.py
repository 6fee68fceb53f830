"""Calibration curves for the measurement-window scenario.

Piecewise-linear schedules (keyed on study-day indices) for PBS adoption,
relay launches and routing, builder order-flow weights and activity — the
levers that let the simulated landscape trace the trajectories in the
paper's Figures 4, 5, 7 and 8 without hard-coding any analysis output.
"""

from __future__ import annotations

from bisect import bisect_right

from ..errors import ConfigError

Schedule = tuple[tuple[int, float], ...]


def interpolate(schedule: Schedule, day: int) -> float:
    """Piecewise-linear interpolation of a (day, value) schedule."""
    if not schedule:
        raise ConfigError("empty schedule")
    days = [point[0] for point in schedule]
    if day <= days[0]:
        return schedule[0][1]
    if day >= days[-1]:
        return schedule[-1][1]
    index = bisect_right(days, day)
    day0, value0 = schedule[index - 1]
    day1, value1 = schedule[index]
    fraction = (day - day0) / (day1 - day0)
    return value0 + fraction * (value1 - value0)


# ---------------------------------------------------------------------------
# PBS adoption (Figure 4)
# ---------------------------------------------------------------------------

# Daily share of validators proposing through MEV-Boost: ~20% on merge day,
# >85% by Nov 3 (day 49), drifting toward the low 90s by end of March.
PBS_ADOPTION: Schedule = (
    (0, 0.20),
    (10, 0.45),
    (25, 0.68),
    (49, 0.86),
    (90, 0.89),
    (150, 0.91),
    (197, 0.92),
)


def pbs_adoption_share(day: int) -> float:
    return interpolate(PBS_ADOPTION, day)


# ---------------------------------------------------------------------------
# Relay launches (Figure 5's new entrants)
# ---------------------------------------------------------------------------

RELAY_LAUNCH_DAY: dict[str, int] = {
    "Flashbots": 0,
    "Blocknative": 0,
    "bloXroute (E)": 0,
    "bloXroute (M)": 0,
    "bloXroute (R)": 0,
    "Eden": 0,
    "Manifold": 0,
    "UltraSound": 47,   # ~1 Nov 2022
    "Aestus": 62,       # ~16 Nov 2022
    "GnosisDAO": 90,    # ~14 Dec 2022
    "Relayooor": 120,   # ~13 Jan 2023
}

# The relays that announced OFAC compliance (Table 3).
OFAC_COMPLIANT_RELAYS = ("Blocknative", "bloXroute (R)", "Eden", "Flashbots")


def relay_is_live(relay_name: str, day: int) -> bool:
    return day >= RELAY_LAUNCH_DAY.get(relay_name, 0)


# ---------------------------------------------------------------------------
# Validator relay menus (drives Figures 5 and 17)
# ---------------------------------------------------------------------------

# Entities fall into connection profiles; menus grow as new relays launch.
# "compliant" entities connect only to OFAC-compliant relays; "open"
# entities chase value across every live relay; "mixed" mostly follow
# defaults shipped with MEV-Boost (Flashbots first, new relays later).
_PROFILE_MENUS: dict[str, tuple[tuple[int, tuple[str, ...]], ...]] = {
    "compliant": (
        # MEV-Boost shipped with the Flashbots relay as the default.
        (0, ("Flashbots",)),
        (18, ("Flashbots", "bloXroute (R)", "Blocknative", "Eden")),
        # Compliance-minded pools eventually add the big neutral relays,
        # which is what drives Figure 17's decline from >80% to ~45%.
        (130, ("Flashbots", "bloXroute (R)", "Blocknative", "Eden", "UltraSound")),
        (165, ("Flashbots", "bloXroute (R)", "Blocknative", "UltraSound",
               "GnosisDAO")),
    ),
    "mixed": (
        (0, ("Flashbots",)),
        (12, ("Flashbots", "bloXroute (M)", "Blocknative")),
        (55, ("Flashbots", "bloXroute (M)", "Blocknative", "UltraSound")),
        (100, ("Flashbots", "bloXroute (M)", "UltraSound", "GnosisDAO")),
        (130, ("Flashbots", "bloXroute (M)", "UltraSound", "GnosisDAO", "Aestus")),
    ),
    "open": (
        (0, ("Flashbots",)),
        (8, ("Flashbots", "bloXroute (M)", "bloXroute (E)", "Manifold", "Eden")),
        (50, ("Flashbots", "bloXroute (M)", "bloXroute (E)", "Manifold", "UltraSound")),
        (95, (
            "Flashbots",
            "bloXroute (M)",
            "bloXroute (E)",
            "Manifold",
            "UltraSound",
            "GnosisDAO",
            "Aestus",
        )),
        (125, (
            "bloXroute (M)",
            "Manifold",
            "UltraSound",
            "GnosisDAO",
            "Aestus",
            "Relayooor",
            "Flashbots",
        )),
    ),
}

# Share of validator stake per connection profile.
PROFILE_SHARES: dict[str, float] = {
    "compliant": 0.38,
    "mixed": 0.34,
    "open": 0.28,
}


def relay_menu(profile: str, day: int) -> tuple[str, ...]:
    """The relay list a validator of this profile runs on a given day."""
    steps = _PROFILE_MENUS.get(profile)
    if steps is None:
        raise ConfigError(f"unknown validator profile {profile!r}")
    menu: tuple[str, ...] = steps[0][1]
    for start_day, value in steps:
        if day >= start_day:
            menu = value
    return tuple(name for name in menu if relay_is_live(name, day))


# ---------------------------------------------------------------------------
# Builder order-flow weights (Figure 8) and relay routing (Figure 5)
# ---------------------------------------------------------------------------

# Relative share of searcher bundles and private user flow each builder
# attracts over time.  Zero means inactive.
BUILDER_FLOW_WEIGHTS: dict[str, Schedule] = {
    "Flashbots": ((0, 0.38), (49, 0.33), (90, 0.26), (150, 0.17), (197, 0.13)),
    "builder0x69": ((0, 0.08), (30, 0.14), (60, 0.20), (120, 0.22), (197, 0.18)),
    "beaverbuild": ((0, 0.03), (40, 0.10), (90, 0.16), (150, 0.22), (197, 0.26)),
    "bloXroute (M)": ((0, 0.10), (60, 0.11), (197, 0.10)),
    "blocknative": ((0, 0.10), (90, 0.07), (197, 0.05)),
    "rsync-builder": ((0, 0.0), (59, 0.0), (60, 0.03), (110, 0.07), (197, 0.10)),
    "eth-builder": ((0, 0.05), (197, 0.035)),
    "bloXroute (R)": ((0, 0.035), (197, 0.03)),
    "Builder 1": ((0, 0.0), (39, 0.0), (40, 0.03), (120, 0.04), (197, 0.025)),
    "Eden": ((0, 0.05), (90, 0.03), (197, 0.015)),
    "Manta-builder": ((0, 0.0), (99, 0.0), (100, 0.02), (197, 0.04)),
    "Builder 2": ((0, 0.012), (197, 0.01)),
    "Builder 3": ((0, 0.01), (197, 0.01)),
    "Builder 4": ((0, 0.008), (197, 0.008)),
    "Builder 5": ((0, 0.006), (197, 0.006)),
    "Builder 6": ((0, 0.006), (197, 0.006)),
    "bloXroute (E)": ((0, 0.035), (197, 0.035)),
}

# Builder -> (relay routing weights over time).  Each slot the builder
# submits to a sampled subset of these relays.
BUILDER_RELAY_ROUTES: dict[str, tuple[tuple[int, dict[str, float]], ...]] = {
    "Flashbots": ((0, {"Flashbots": 1.0}),),
    "blocknative": ((0, {"Blocknative": 1.0}),),
    "Eden": ((0, {"Eden": 1.0}),),
    "bloXroute (M)": ((0, {"bloXroute (M)": 1.0}),),
    "bloXroute (R)": ((0, {"bloXroute (R)": 1.0}),),
    "bloXroute (E)": ((0, {"bloXroute (E)": 1.0}),),
    "builder0x69": (
        (0, {"Flashbots": 0.70, "bloXroute (M)": 0.20, "Manifold": 0.10}),
        (60, {"Flashbots": 0.40, "bloXroute (M)": 0.25, "UltraSound": 0.25,
              "Manifold": 0.10}),
        (110, {"Flashbots": 0.30, "UltraSound": 0.30, "GnosisDAO": 0.20,
               "bloXroute (M)": 0.15, "Relayooor": 0.05}),
    ),
    "beaverbuild": (
        (0, {"Flashbots": 0.65, "bloXroute (M)": 0.25, "Manifold": 0.10}),
        (60, {"Flashbots": 0.35, "UltraSound": 0.35, "bloXroute (M)": 0.30}),
        (110, {"UltraSound": 0.40, "GnosisDAO": 0.25, "Flashbots": 0.20,
               "bloXroute (M)": 0.15}),
    ),
    "rsync-builder": (
        (60, {"UltraSound": 0.45, "Flashbots": 0.30, "bloXroute (M)": 0.25}),
        (110, {"UltraSound": 0.40, "GnosisDAO": 0.30, "Flashbots": 0.20,
               "Aestus": 0.10}),
    ),
    "eth-builder": (
        (0, {"Flashbots": 0.45, "Manifold": 0.30, "bloXroute (M)": 0.25}),
        (90, {"Flashbots": 0.30, "Manifold": 0.20, "UltraSound": 0.25,
              "GnosisDAO": 0.15, "Relayooor": 0.10}),
    ),
    "Builder 1": (
        (40, {"Flashbots": 0.5, "UltraSound": 0.3, "bloXroute (M)": 0.2}),
    ),
    "Manta-builder": (
        (100, {"UltraSound": 0.4, "GnosisDAO": 0.35, "Aestus": 0.25}),
    ),
    "Builder 2": ((0, {"Manifold": 0.6, "Flashbots": 0.4}),),
    "Builder 3": ((0, {"Flashbots": 0.6, "Manifold": 0.4}),),
    "Builder 4": ((0, {"Flashbots": 0.5, "bloXroute (M)": 0.5}),),
    "Builder 5": ((0, {"Manifold": 0.5, "Flashbots": 0.5}),),
    "Builder 6": ((0, {"Flashbots": 0.7, "Manifold": 0.3}),),
}

# Long-tail builders rotate across the permissionless relays, preferring
# newer ones as they launch (drives Figure 7's rising builder counts).
LONG_TAIL_RELAY_POOL: tuple[str, ...] = (
    "Flashbots",
    "Manifold",
    "UltraSound",
    "GnosisDAO",
    "Aestus",
    "Relayooor",
)


def builder_flow_weight(builder: str, day: int) -> float:
    schedule = BUILDER_FLOW_WEIGHTS.get(builder)
    if schedule is None:
        return 0.0
    return max(0.0, interpolate(schedule, day))


def builder_relay_weights(builder: str, day: int) -> dict[str, float]:
    """Live-relay routing weights for a builder on a given day."""
    steps = BUILDER_RELAY_ROUTES.get(builder)
    if steps is None:
        return {}
    weights: dict[str, float] = {}
    for start_day, value in steps:
        if day >= start_day:
            weights = value
    return {
        name: weight
        for name, weight in weights.items()
        if relay_is_live(name, day)
    }


# ---------------------------------------------------------------------------
# Workload trends
# ---------------------------------------------------------------------------

# Gentle decline in public demand over the window plus weekly seasonality.
TX_VOLUME: Schedule = ((0, 1.1), (49, 1.0), (120, 0.95), (197, 0.95))


def tx_volume_multiplier(day: int) -> float:
    weekly = 1.0 + 0.06 * ((day % 7) - 3) / 3.0
    return interpolate(TX_VOLUME, day) * weekly


# Builders get better at extracting value over time (the widening PBS vs
# non-PBS gap in Figure 9): searcher bid sizes and bundle frequency grow.
BUILDER_SOPHISTICATION: Schedule = ((0, 0.8), (60, 1.0), (197, 1.35))


def builder_sophistication(day: int) -> float:
    return interpolate(BUILDER_SOPHISTICATION, day)
