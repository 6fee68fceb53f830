"""Unit tests for simulation config, timeline and calibration curves."""

import datetime

import pytest

from repro.constants import STUDY_NUM_DAYS, day_index
from repro.errors import ConfigError
from repro.simulation.config import SimulationConfig, small_test_config
from repro.simulation.events import Timeline, default_timeline
from repro.simulation import calibration


class TestConfig:
    def test_defaults_valid(self):
        config = SimulationConfig()
        assert config.num_days == STUDY_NUM_DAYS

    def test_small_config_fast(self):
        config = small_test_config()
        assert config.num_days <= 20
        assert config.num_days * config.blocks_per_day <= 200

    def test_small_config_overrides(self):
        config = small_test_config(seed=99, num_days=5)
        assert config.seed == 99
        assert config.num_days == 5

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_days", 0),
            ("num_days", STUDY_NUM_DAYS + 1),
            ("blocks_per_day", 0),
            ("num_validators", 3),
            ("missed_slot_rate", 1.5),
            ("sanctioned_tx_rate", 2.0),
            ("seed", -1),
            ("num_users", 0),
            ("num_long_tail_builders", -1),
            ("network_nodes", 0),
            ("mean_user_txs_per_slot", -5),
            ("num_lending_positions", -3),
            ("lending_refill_per_day", -2),
            ("min_bid_eth", -1),
            ("max_active_builders_per_slot", 0),
            ("faults", ({"kind": "builder-crash", "target": "Builder 1"},)),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigError, match=field):
            SimulationConfig(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("seed", -1),
            ("num_days", 0),
            ("num_days", STUDY_NUM_DAYS + 1),
            ("blocks_per_day", 0),
            ("num_validators", 3),
        ],
    )
    def test_range_errors_carry_their_field(self, field, value):
        with pytest.raises(ConfigError) as exc:
            SimulationConfig(**{field: value})
        assert exc.value.field == field

    def test_seconds_per_slot(self):
        config = SimulationConfig(blocks_per_day=40)
        assert config.seconds_per_simulated_slot == pytest.approx(2160.0)

    @pytest.mark.parametrize(
        "field",
        [
            "build_workers",
            "dataset_backend",
            "eager_protocol_forks",
            "enable_exec_cache",
            "engine_fast_path",
            "use_enshrined_pbs",
            "private_user_tx_share",
            "swap_tx_share",
            "token_tx_share",
            "extra_gas_mean",
            "extra_gas_sigma",
            "victim_swap_rate",
            "public_searcher_skill",
            "enable_binance_ankr_flow",
            "enable_beaverbuild_loss",
            "eden_mispromise_claim_eth",
            "eden_mispromise_paid_eth",
            "enable_manifold_incident",
            "enable_eden_mispromise",
            "enable_timestamp_bug",
            "extended_horizon",
        ],
    )
    def test_removed_fields_rejected_by_overrides(self, field):
        # Scenario ``config_overrides`` go through with_overrides, so
        # a stale knob must fail loudly rather than be ignored.
        with pytest.raises(ConfigError, match=field):
            small_test_config().with_overrides(**{field: True})


class TestTimeline:
    def test_event_days_match_dates(self):
        timeline = default_timeline()
        assert timeline.ftx_bankruptcy_day == day_index(
            datetime.date(2022, 11, 11)
        )
        assert timeline.manifold_incident_day == day_index(
            datetime.date(2022, 10, 15)
        )
        assert timeline.timestamp_bug_day == day_index(
            datetime.date(2022, 11, 10)
        )

    def test_mev_intensity_spikes(self):
        timeline = default_timeline()
        quiet = timeline.mev_intensity(20)
        ftx = timeline.mev_intensity(timeline.ftx_bankruptcy_day)
        usdc = timeline.mev_intensity(timeline.usdc_depeg_day)
        assert quiet == 1.0
        assert ftx > 2.0
        assert usdc > 2.0

    def test_vol_multipliers_on_event_days(self):
        timeline = default_timeline()
        assert timeline.oracle_vol_multipliers(20) == {}
        depeg = timeline.oracle_vol_multipliers(timeline.usdc_depeg_day)
        assert depeg.get("USDC", 1.0) > 1.0

    def test_binance_window(self):
        timeline = default_timeline()
        start, end = timeline.binance_ankr_days
        assert timeline.in_binance_ankr_window(start)
        assert timeline.in_binance_ankr_window(end)
        assert not timeline.in_binance_ankr_window(start - 1)

    def test_beaverbuild_loss_window(self):
        timeline = default_timeline()
        start, end = timeline.beaverbuild_loss_days
        assert timeline.beaverbuild_loss_boost(start) > 0
        assert timeline.beaverbuild_loss_boost(start - 1) == 0


class TestCalibration:
    def test_interpolation(self):
        schedule = ((0, 0.0), (10, 1.0))
        assert calibration.interpolate(schedule, 0) == 0.0
        assert calibration.interpolate(schedule, 5) == 0.5
        assert calibration.interpolate(schedule, 10) == 1.0
        assert calibration.interpolate(schedule, 100) == 1.0

    def test_empty_schedule_rejected(self):
        with pytest.raises(ConfigError):
            calibration.interpolate((), 0)

    def test_adoption_curve_matches_paper(self):
        assert calibration.pbs_adoption_share(0) == pytest.approx(0.20)
        assert calibration.pbs_adoption_share(49) >= 0.85
        assert 0.85 <= calibration.pbs_adoption_share(197) <= 0.94

    def test_adoption_monotonic(self):
        values = [calibration.pbs_adoption_share(d) for d in range(0, 198, 7)]
        assert values == sorted(values)

    def test_relay_launches(self):
        assert calibration.relay_is_live("Flashbots", 0)
        assert not calibration.relay_is_live("UltraSound", 10)
        assert calibration.relay_is_live("UltraSound", 60)

    def test_menus_only_contain_live_relays(self):
        for profile in ("compliant", "mixed", "open"):
            for day in (0, 30, 60, 120, 197):
                for relay in calibration.relay_menu(profile, day):
                    assert calibration.relay_is_live(relay, day)

    def test_unknown_profile_rejected(self):
        with pytest.raises(ConfigError):
            calibration.relay_menu("nope", 0)

    def test_flashbots_weight_declines(self):
        early = calibration.builder_flow_weight("Flashbots", 5)
        late = calibration.builder_flow_weight("Flashbots", 190)
        assert early > 2 * late

    def test_beaverbuild_weight_rises(self):
        assert calibration.builder_flow_weight("beaverbuild", 190) > (
            calibration.builder_flow_weight("beaverbuild", 5)
        )

    def test_unknown_builder_weight_zero(self):
        assert calibration.builder_flow_weight("nobody", 50) == 0.0

    def test_relay_routes_live_only(self):
        routes = calibration.builder_relay_weights("builder0x69", 5)
        assert "UltraSound" not in routes  # not yet launched
        routes_late = calibration.builder_relay_weights("builder0x69", 150)
        assert "UltraSound" in routes_late

    def test_internal_builders_route_home(self):
        assert calibration.builder_relay_weights("Flashbots", 100) == {
            "Flashbots": 1.0
        }

    def test_sophistication_grows(self):
        assert calibration.builder_sophistication(197) > (
            calibration.builder_sophistication(0)
        )
