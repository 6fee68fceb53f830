"""Shared fixtures: small simulated worlds, built once per session."""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.datasets import collect_study_dataset
from repro.simulation import build_world
from repro.simulation.config import SimulationConfig, small_test_config
from repro.testing.oracles import run_oracles
from repro.testing.scenarios import (
    RunArtifacts,
    ScenarioRunner,
    detect_anomalies,
)

# Hypothesis profiles: "dev" keeps default randomness but drops the
# deadline (world-building fixtures make first examples slow); "ci" is
# fully deterministic so the conformance job never flakes.
settings.register_profile("dev", deadline=None)
settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    max_examples=25,
    suppress_health_check=(HealthCheck.too_slow,),
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(scope="session")
def small_world():
    """A tiny world (12 days x 8 blocks) for fast structural tests."""
    return build_world(small_test_config()).run()


@pytest.fixture(scope="session")
def medium_world():
    """A world long enough for qualitative paper findings to emerge.

    Spans the 2022-11-08 OFAC update, the Nov-10 timestamp bug, the FTX
    spike, and the Manifold/Eden incidents.
    """
    config = SimulationConfig(
        seed=13,
        num_days=70,
        blocks_per_day=14,
        num_validators=360,
        num_users=260,
        num_long_tail_builders=24,
        network_nodes=32,
        mean_user_txs_per_slot=50.0,
        max_active_builders_per_slot=6,
    )
    return build_world(config).run()


@pytest.fixture(scope="session")
def small_dataset(small_world):
    return collect_study_dataset(small_world)


@pytest.fixture(scope="session")
def medium_dataset(medium_world):
    return collect_study_dataset(medium_world)


@pytest.fixture(scope="session")
def scenario_runner(small_world, small_dataset):
    """A conformance scenario runner with the session world as baseline.

    Seeding the cached baseline from the session fixtures saves one full
    clean run; scenarios with config overrides still build their own.
    """
    runner = ScenarioRunner()
    report = run_oracles(small_world, small_dataset)
    anomalies = detect_anomalies(small_world, small_dataset, report)
    runner.seed_baseline(
        runner.base_config,
        RunArtifacts(
            world=small_world,
            dataset=small_dataset,
            report=report,
            anomalies=anomalies,
            digest=small_world.digest(),
        ),
    )
    return runner
