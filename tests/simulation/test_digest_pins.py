"""Pinned world and dataset digests for the small seed-7 config.

The other determinism tests compare runs with each other, so a change
that moves every run alike passes them.  These pins catch that drift: a
change that moves a digest on purpose re-pins it here and says why.

The 4-day pins reach no incident day; the ``medium_world`` pin covers all
three paper incidents (Eden day 23, Manifold day 30, builder0x69's stale
timestamps day 56), and the incidents-off pin runs a 60-day window with
none of them.
"""

from __future__ import annotations

import pytest

from repro.datasets import collect_study_dataset
from repro.perf.sharding import run_sharded
from repro.simulation.config import small_test_config
from repro.simulation.world import build_world

# (regime, segment_days) -> (world digest, dataset digest)
PINS = {
    ("mev_boost", 0): (
        "2a7910cc2d27f1950fdb3193b0e0de3b8a2abf58b67b5d8b24416a86ab5212a8",
        "e53e36f6e1eb6826b3a64bb337702ae8407241c748974596f92b1b58007c4422",
    ),
    ("mev_boost", 2): (
        "5bb70b4e40003d3a8b3674c1b75ad12763104ce7fddb658aa2adf2660cecea4b",
        "3c9abc912a9b7a49590aeaf5c143a836fa54a9f69661a6efe2d861b6a51ccc02",
    ),
    ("epbs", 0): (
        "2a6c91e97cb05c3fc3b6a038d72c74e8dc6c2492fe93104b5ca05741ada118f8",
        "efe09f1e7d79cdb6846b59de1b820a2a9329fb19044410e625f584200810fb5b",
    ),
    ("epbs", 2): (
        "a6372c841c5660fdfdac1837eca927ce0853a33f39490b444f91a201710b3018",
        "5f66017979d5c031513ca4ec0ddc8dae9a8f63ed981e7769184ed859d748648e",
    ),
    ("local", 0): (
        "adb81e5d5d5963c2e914574a32503b3f9c1fca058f2794b74bfc93f5630ef051",
        "3d164d26d12f4e122e769e33e2e927e6068d84c35f0a39ea0c63dbcbd6d64837",
    ),
    ("local", 2): (
        "839f0fef5ba9efea9353dc41fe7b219385642716abf78b353913db0db2570e48",
        "a352ba973d5af2597c1160c9e8bc473884392a2a642851cc9020957972e1ed1b",
    ),
}


@pytest.mark.parametrize("regime, segment_days", sorted(PINS), ids=str)
def test_seed_7_digests_are_pinned(regime, segment_days):
    config = small_test_config(
        seed=7,
        num_days=4,
        blocks_per_day=6,
        regime=regime,
        segment_days=segment_days,
    )
    if segment_days:
        run = run_sharded(config)
        digests = (run.digest(), run.dataset.content_digest())
    else:
        world = build_world(config).run()
        digests = (world.digest(), collect_study_dataset(world).content_digest())
    assert digests == PINS[regime, segment_days]


MEDIUM_WORLD_PIN = (
    "7c98612381db498ef437b9044a6f7d3c601423706ae521154ae566ff131c60d2",
    "be63456eeb4c76f770febfdf04fc25930372583f3a67724fd83aeda6ce31cc56",
)

INCIDENTS_OFF_PIN = (
    "cbfe37a3389bb01e9edc4022ea34e71e944bfa86cbf5994b0d675189afc72ab1",
    "db238f874b0dda4f173b1382532c1aadebdc367a342facc2da85ee63c657f6e9",
)


def test_medium_world_digests_are_pinned(medium_world, medium_dataset):
    digests = (medium_world.digest(), medium_dataset.content_digest())
    assert digests == MEDIUM_WORLD_PIN


def test_incidents_off_digests_are_pinned():
    config = small_test_config(num_days=60, blocks_per_day=4, faults=())
    world = build_world(config).run()
    digests = (world.digest(), collect_study_dataset(world).content_digest())
    assert digests == INCIDENTS_OFF_PIN
