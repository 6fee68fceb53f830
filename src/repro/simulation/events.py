"""The scenario timeline: dated events of the measurement window.

Maps every incident and market event the paper discusses onto study-day
indices (day 0 = the merge, 2022-09-15) so the world loop and calibration
curves can key off them.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

from ..constants import (
    FTX_BANKRUPTCY_DATE,
    MANIFOLD_INCIDENT_DATE,
    NOV10_TIMESTAMP_BUG_DATE,
    USDC_DEPEG_DATE,
    day_index,
)

EDEN_MISPROMISE_DATE = datetime.date(2022, 10, 8)  # block 15,703,347
BINANCE_ANKR_START = datetime.date(2022, 12, 12)
BINANCE_ANKR_END = datetime.date(2022, 12, 26)
BEAVERBUILD_LOSS_START = datetime.date(2023, 2, 12)
BEAVERBUILD_LOSS_END = datetime.date(2023, 3, 14)


@dataclass(frozen=True)
class Timeline:
    """Study-day indices for every scenario event."""

    ftx_bankruptcy_day: int = day_index(FTX_BANKRUPTCY_DATE)
    usdc_depeg_day: int = day_index(USDC_DEPEG_DATE)
    manifold_incident_day: int = day_index(MANIFOLD_INCIDENT_DATE)
    timestamp_bug_day: int = day_index(NOV10_TIMESTAMP_BUG_DATE)
    eden_mispromise_day: int = day_index(EDEN_MISPROMISE_DATE)
    binance_ankr_days: tuple[int, int] = (
        day_index(BINANCE_ANKR_START),
        day_index(BINANCE_ANKR_END),
    )
    beaverbuild_loss_days: tuple[int, int] = (
        day_index(BEAVERBUILD_LOSS_START),
        day_index(BEAVERBUILD_LOSS_END),
    )

    def mev_intensity(self, day: int) -> float:
        """Volatility/MEV multiplier for a study day.

        Baseline 1.0 with sharp spikes around the FTX bankruptcy and the
        USDC depeg — the two high-MEV events visible in the paper's
        Figure 10.
        """
        intensity = 1.0
        for event_day, peak, width in (
            (self.ftx_bankruptcy_day, 4.0, 2),
            (self.usdc_depeg_day, 3.5, 1),
        ):
            distance = abs(day - event_day)
            if distance <= width:
                intensity = max(intensity, 1.0 + (peak - 1.0) * (1 - distance / (width + 1)))
        return intensity

    def oracle_vol_multipliers(self, day: int) -> dict[str, float]:
        """Per-asset oracle volatility multipliers for a study day."""
        multipliers: dict[str, float] = {}
        if abs(day - self.ftx_bankruptcy_day) <= 2:
            multipliers["*"] = 3.0
        if day == self.usdc_depeg_day:
            multipliers["USDC"] = 8.0
            multipliers["*"] = max(multipliers.get("*", 1.0), 2.0)
        return multipliers

    def in_binance_ankr_window(self, day: int) -> bool:
        start, end = self.binance_ankr_days
        return start <= day <= end

    def beaverbuild_loss_boost(self, day: int) -> float:
        start, end = self.beaverbuild_loss_days
        return 0.12 if start <= day <= end else 0.0


def default_timeline() -> Timeline:
    return Timeline()
