"""The weighted and index picks draw exactly what ``Generator.choice`` draws.

numpy's ``choice`` stays the reference: for each set of weights the world
samples from, the sampler must return the same names and leave the
generator in the same state, so swapping one for the other moves no
digest.
"""

import numpy as np
import pytest

from repro.simulation import build_world, calibration
from repro.simulation.config import small_test_config
from repro.simulation.entities import NAMED_BUILDERS
from repro.simulation.sampling import WeightedPick

SEEDS = range(50)


def _day_100_flow() -> tuple[list[str], list[float]]:
    """The 133-name order-flow weights of day 100, long tail all live."""
    named = [name for name, *_ in NAMED_BUILDERS]
    tail = [f"builder-{index:03d}" for index in range(116)]
    weights = [calibration.builder_flow_weight(name, 100) for name in named]
    return named + tail, weights + [0.001] * len(tail)


def _routes() -> list[tuple[str, int, list[str], list[float]]]:
    return [
        (builder, start_day, list(weights), list(weights.values()))
        for builder, steps in calibration.BUILDER_RELAY_ROUTES.items()
        for start_day, weights in steps
    ]


def _reference_probs(weights: list[float]) -> np.ndarray:
    probs = np.array(weights, dtype=float)
    return probs / probs.sum()


def _assert_matches_choice(names: list[str], weights: list[float]) -> None:
    pick = WeightedPick(names, weights)
    probs = _reference_probs(weights)
    for seed in SEEDS:
        for size in [*range(1, 8), len(names)]:
            expected = np.random.default_rng(seed)
            actual = np.random.default_rng(seed)
            want = expected.choice(
                names, size=min(size, len(names)), replace=False, p=probs
            )
            assert pick.choose(actual, size) == tuple(str(n) for n in want), (
                seed,
                size,
            )
            assert actual.random() == expected.random(), (seed, size)


def test_day_100_order_flow_matches_choice():
    names, weights = _day_100_flow()
    assert len(names) == 133
    assert sum(weight == 0.001 for weight in weights) == 116
    _assert_matches_choice(names, weights)


def test_day_100_order_flow_takes_repeat_rounds():
    # A first round that draws some name twice must go to a second round:
    # the case where the chosen weights are zeroed and the CDF rebuilt.
    names, weights = _day_100_flow()
    cdf = np.cumsum(_reference_probs(weights))
    repeats = 0
    for seed in SEEDS:
        draws = np.random.default_rng(seed).random(7)
        repeats += len(set(cdf.searchsorted(draws, side="right").tolist())) < 7
    assert repeats > 0


@pytest.mark.parametrize(
    "builder,start_day,names,weights",
    _routes(),
    ids=[f"{builder}@{day}" for builder, day, _, _ in _routes()],
)
def test_relay_routes_match_choice(builder, start_day, names, weights):
    _assert_matches_choice(names, weights)


def test_one_name_draw_matches_choice_with_replacement():
    names = list(calibration.PROFILE_SHARES)
    weights = list(calibration.PROFILE_SHARES.values())
    pick = WeightedPick(names, weights)
    probs = _reference_probs(weights)
    for seed in SEEDS:
        expected = np.random.default_rng(seed)
        actual = np.random.default_rng(seed)
        for _ in range(20):
            assert pick.choose(actual, 1)[0] == str(expected.choice(names, p=probs))
        assert actual.random() == expected.random()


@pytest.mark.parametrize("length", [1, 2, 3, 6, 11, 133])
def test_index_draw_matches_unweighted_choice(length):
    seq = tuple(f"item-{index}" for index in range(length))
    for seed in SEEDS:
        expected = np.random.default_rng(seed)
        actual = np.random.default_rng(seed)
        for _ in range(10):
            want = str(expected.choice(seq))
            assert seq[int(actual.integers(0, len(seq)))] == want
            # Interleave a double draw, as the workload generator does.
            assert actual.random() == expected.random()
        assert actual.integers(0, 2**40) == expected.integers(0, 2**40)


@pytest.mark.parametrize("regime", ["mev_boost", "epbs", "local"])
def test_relay_menu_is_the_profiles_menu_once_adopted(regime):
    # The digest pins stop at day 70; the menus change until day 165.
    world = build_world(
        small_test_config(num_days=198, num_validators=60, regime=regime)
    )
    menus = set()
    for day in range(198):
        for validator in world.validators:
            menu = world.relay_menu(validator.index, day)
            if regime == "mev_boost" and world._adoption[validator.index] <= day:
                profile = world._profiles[validator.index]
                assert menu == calibration.relay_menu(profile, day), (
                    day,
                    validator.index,
                )
            else:
                # Only MEV-Boost has relay menus, and only adopters run it.
                assert menu == (), (day, validator.index)
            menus.add(menu)
    if regime == "mev_boost":
        # Adoption spreads over the window, and the profiles' menus differ.
        assert () in menus and len(menus) > 4
    else:
        assert menus == {()}
