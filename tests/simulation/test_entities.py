"""Unit tests for the scenario landscape (relays, builders, validators)."""

import numpy as np
import pytest

from repro.core.policies import BuilderAccess, CensorshipPolicy, MevFilterPolicy
from repro.simulation.config import small_test_config
from repro.simulation.entities import (
    NAMED_BUILDERS,
    RELAY_SPECS,
    build_builders,
    build_defi,
    build_relays,
    build_searchers,
    build_validators,
)
from repro.simulation.events import default_timeline
from repro.simulation.world import build_world


@pytest.fixture(scope="module")
def config():
    return small_test_config(num_days=12)


@pytest.fixture(scope="module")
def relays(config):
    return build_relays(config)


@pytest.fixture(scope="module")
def builders(config):
    return build_builders(
        config, default_timeline(), np.random.default_rng(0), 24
    )


@pytest.fixture(scope="module")
def world(config):
    """A built (not run) world: the default fault plan seeds the incidents."""
    return build_world(config)


class TestRelays:
    def test_all_eleven_present(self, relays):
        assert len(relays) == 11
        assert set(relays) == {spec[0] for spec in RELAY_SPECS}

    def test_policy_matrix_matches_table3(self, relays):
        # OFAC-compliant relays per the paper.
        compliant = {
            name for name, relay in relays.items() if relay.policy.is_censoring
        }
        assert compliant == {"Blocknative", "bloXroute (R)", "Eden", "Flashbots"}
        # Only bloXroute (E) filters front-running.
        filtering = {
            name
            for name, relay in relays.items()
            if relay.policy.mev_filter is not MevFilterPolicy.NONE
        }
        assert filtering == {"bloXroute (E)"}

    def test_blocknative_runs_dreamboat(self, relays):
        assert relays["Blocknative"].fork == "Dreamboat"
        others = [r.fork for n, r in relays.items() if n != "Blocknative"]
        assert set(others) == {"MEV Boost"}

    def test_permissionless_relays(self, relays):
        permissionless = {
            name
            for name, relay in relays.items()
            if relay.policy.builder_access
            in (BuilderAccess.PERMISSIONLESS, BuilderAccess.INTERNAL_PERMISSIONLESS)
        }
        assert permissionless == {
            "Aestus", "Flashbots", "GnosisDAO", "Manifold", "Relayooor",
            "UltraSound",
        }

    def test_aestus_always_validates(self, relays):
        assert relays["Aestus"].validation_miss_rate == 0.0

    def test_manifold_incident_scheduled(self, world):
        timeline = default_timeline()
        assert timeline.manifold_incident_day in (
            world.relays["Manifold"].validation_outage_days
        )

    def test_endpoints_match_table2(self, relays):
        assert relays["Flashbots"].endpoint == "https://boost-relay.flashbots.net"
        assert relays["UltraSound"].endpoint == "https://relay.ultrasound.money"


class TestBuilders:
    def test_named_roster_plus_tail(self, builders, config):
        named = [name for name, *_ in NAMED_BUILDERS]
        assert all(name in builders for name in named)
        tail = [name for name in builders if name.startswith("builder-")]
        assert len(tail) == config.num_long_tail_builders

    def test_pubkey_counts_match_table5(self, builders):
        assert len(builders["builder0x69"].pubkeys) == 5
        assert len(builders["beaverbuild"].pubkeys) == 4
        assert len(builders["Flashbots"].pubkeys) == 3
        assert len(builders["Builder 2"].pubkeys) == 1

    def test_untraceable_builders_pay_via_proposer(self, builders):
        # The paper's Builder 3 / Builder 6: no on-chain fee recipient.
        assert builders["Builder 3"].pays_via_proposer_recipient
        assert builders["Builder 6"].pays_via_proposer_recipient
        assert not builders["Flashbots"].pays_via_proposer_recipient

    def test_censoring_builders(self, builders):
        for name in ("Flashbots", "blocknative", "Eden", "bloXroute (R)"):
            assert builders[name].self_censors, name
        for name in ("builder0x69", "beaverbuild", "bloXroute (M)"):
            assert not builders[name].self_censors, name

    def test_eden_mispromise_scripted(self, world):
        timeline = default_timeline()
        day = timeline.eden_mispromise_day
        assert day in world.builders["Eden"].scripted_mispromise
        claimed, paid = world.builders["Eden"].scripted_mispromise[day]
        assert claimed > paid

    def test_timestamp_bug_scripted(self, world):
        timeline = default_timeline()
        assert timeline.timestamp_bug_day in (
            world.builders["builder0x69"].timestamp_bug_days
        )

    def test_manifold_exploit_scripted(self, world):
        timeline = default_timeline()
        rogue = world.builders["Builder 2"]
        assert rogue.claim_inflation == {
            timeline.manifold_incident_day: {"Manifold": 10**18}
        }


class TestValidators:
    def test_population_and_profiles(self, config):
        registry, profiles, adoption = build_validators(
            config, np.random.default_rng(1)
        )
        assert len(registry) >= config.num_validators
        assert set(profiles) == {v.index for v in registry}
        assert set(adoption) == {v.index for v in registry}

    def test_ankr_never_adopts(self, config):
        registry, _, adoption = build_validators(config, np.random.default_rng(1))
        ankr = [v for v in registry if v.entity == "AnkrPool"]
        assert ankr
        for validator in ankr:
            assert adoption[validator.index] > config.num_days

    def test_adoption_days_follow_curve(self, config):
        registry, _, adoption = build_validators(config, np.random.default_rng(1))
        day0 = sum(1 for day in adoption.values() if day == 0)
        # Roughly 20% adopt on day zero.
        assert 0.10 <= day0 / len(registry) <= 0.32

    def test_solo_stakers_exist(self, config):
        registry, _, _ = build_validators(config, np.random.default_rng(1))
        solos = [v for v in registry if v.entity.startswith("solo-")]
        assert solos


class TestSearchersAndDefi:
    def test_searcher_roster(self):
        searchers = build_searchers()
        kinds = {type(s).__name__ for s in searchers}
        assert kinds == {
            "SandwichSearcher", "ArbitrageSearcher", "LiquidationSearcher",
        }
        assert len({s.address for s in searchers}) == len(searchers)

    def test_defi_universe(self):
        defi = build_defi()
        assert set(defi.markets) == {"aave", "compound"}
        assert defi.tokens.token("WETH").symbol == "WETH"
        assert defi.tokens.token("TRON").symbol == "TRON"
        # Pools are seeded consistently with the oracle: mid prices near
        # oracle ratios.
        pool = defi.amm.pool("WETH-USDC-30")
        usdc_per_weth = pool.mid_price("WETH") / 10**6 * 10**18
        oracle_ratio = defi.oracle.price_usd("WETH") / defi.oracle.price_usd("USDC")
        assert usdc_per_weth == pytest.approx(oracle_ratio, rel=0.01)
