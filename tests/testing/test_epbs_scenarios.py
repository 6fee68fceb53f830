"""Exactness tests for the ePBS fault scenarios.

The three EIP-7732 failure modes — withheld payload, bid reneging
against collateral, PTC equivocation — must each be detected when
injected and never otherwise: clean ePBS baselines carry no detection
keys at all.
"""

from __future__ import annotations

import pytest

from repro.errors import ScenarioError
from repro.simulation.config import small_test_config
from repro.simulation.faults import apply_fault
from repro.simulation.world import build_world
from repro.testing.scenarios import (
    FAULT_BID_RENEGING,
    FAULT_PTC_EQUIVOCATION,
    FAULT_WITHHELD_PAYLOAD,
    FaultSpec,
    ScenarioRunner,
    default_scenarios,
)

EPBS_SCENARIOS = {
    scenario.name: scenario
    for scenario in default_scenarios()
    if scenario.name.startswith("epbs-")
}


class TestGuards:
    def test_epbs_faults_rejected_outside_epbs_regime(self):
        world = build_world(small_test_config(num_days=2, blocks_per_day=4))
        for kind in (
            FAULT_WITHHELD_PAYLOAD,
            FAULT_BID_RENEGING,
            FAULT_PTC_EQUIVOCATION,
        ):
            with pytest.raises(ScenarioError, match="regime='epbs'"):
                apply_fault(
                    world, FaultSpec(kind=kind, target="Builder 1", day=1)
                )

    def test_shipped_scenarios_override_regime(self):
        assert len(EPBS_SCENARIOS) == 3
        for scenario in EPBS_SCENARIOS.values():
            assert scenario.config_overrides.get("regime") == "epbs"


class TestExactness:
    @pytest.fixture(scope="class")
    def runner(self):
        return ScenarioRunner()

    @pytest.mark.parametrize("name", sorted(EPBS_SCENARIOS))
    def test_scenario_detected_exactly(self, runner, name):
        result = runner.run(EPBS_SCENARIOS[name])
        assert result.problems() == []
        # ePBS baselines are completely quiet: no relay claims exist, so
        # even the always-on MEV-Boost detectors have nothing to say.
        assert result.baseline.anomalies == {}
        assert set(result.perturbed.anomalies) == set(
            EPBS_SCENARIOS[name].expected_keys()
        )

    def test_withheld_payload_slashes_and_forfeits_bid(self, runner):
        result = runner.run(EPBS_SCENARIOS["epbs-withheld-payload"])
        ledger = result.perturbed.world.epbs_ledger
        withheld = [rec for rec in ledger.slots if not rec.revealed]
        assert len(withheld) == 1
        (rec,) = withheld
        assert rec.builder == "Builder 1"
        assert rec.payment_wei == 0
        assert rec.settled_wei == rec.bid_wei  # escrow covered the bid
        assert [s.builder for s in ledger.slashings] == ["Builder 1"]

    def test_reneging_settles_shortfall_from_collateral(self, runner):
        result = runner.run(EPBS_SCENARIOS["epbs-bid-reneging"])
        ledger = result.perturbed.world.epbs_ledger
        slashed = [s for s in ledger.slashings if s.builder == "Builder 3"]
        assert len(slashed) == 1
        reneged = [
            rec
            for rec in ledger.slots
            if rec.builder == "Builder 3" and rec.settled_wei > 0
        ]
        assert reneged
        for rec in reneged:
            assert rec.payment_wei + rec.settled_wei >= rec.bid_wei

    def test_equivocation_empties_the_day(self, runner):
        result = runner.run(EPBS_SCENARIOS["epbs-ptc-equivocation"])
        ledger = result.perturbed.world.epbs_ledger
        equivocal = [rec for rec in ledger.slots if rec.ptc_equivocations]
        assert equivocal
        for rec in equivocal:
            assert rec.revealed and not rec.payload_full
            assert rec.ptc_votes_for < 8 // 2 + 1
