"""Simulation conformance harness.

Three composable layers that make refactors of the simulator and the
measurement pipeline safe:

* :mod:`~repro.testing.oracles` — invariant checkers run over a finished
  :class:`~repro.simulation.world.World` and its collected dataset (value
  conservation, chain validity, relay-API consistency, mempool causality,
  sanctions-screening soundness);
* :mod:`~repro.testing.scenarios` — declarative fault injection into a
  seeded config's fault plan (:mod:`repro.simulation.faults`), asserting
  the oracles and the analysis layer detect exactly the injected
  anomalies, no more, no fewer;
* :mod:`~repro.testing.differential` — the differential replay matrix:
  one seeded scenario re-run under every performance configuration must
  produce bit-identical digests and oracle-clean results.
"""

from .differential import (
    DEFAULT_CASES,
    GROUP_DEFAULT,
    GROUP_SHARDED,
    ReplayCase,
    ReplayReport,
    regime_cases,
    run_replay_matrix,
    sharded_cases,
)
from ..simulation.faults import FaultSpec, apply_fault
from .oracles import (
    OracleFinding,
    OracleReport,
    run_oracles,
)
from .scenarios import (
    DetectedAnomaly,
    Scenario,
    ScenarioResult,
    ScenarioRunner,
    default_scenarios,
    detect_anomalies,
    scenario_from_dict,
    scenarios_from_yaml,
)

__all__ = [
    "DEFAULT_CASES",
    "DetectedAnomaly",
    "FaultSpec",
    "GROUP_DEFAULT",
    "GROUP_SHARDED",
    "regime_cases",
    "sharded_cases",
    "OracleFinding",
    "OracleReport",
    "ReplayCase",
    "ReplayReport",
    "Scenario",
    "ScenarioResult",
    "ScenarioRunner",
    "apply_fault",
    "default_scenarios",
    "detect_anomalies",
    "run_oracles",
    "run_replay_matrix",
    "scenario_from_dict",
    "scenarios_from_yaml",
]
