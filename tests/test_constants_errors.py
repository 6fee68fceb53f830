"""Tests for chain constants and the error hierarchy."""

import datetime

import pytest

from repro import constants, errors


class TestConstants:
    def test_study_window(self):
        assert constants.STUDY_NUM_DAYS == 198
        assert constants.MERGE_DATE == datetime.date(2022, 9, 15)
        assert constants.STUDY_END_DATE == datetime.date(2023, 3, 31)

    def test_block_numbers_match_paper(self):
        assert constants.MERGE_BLOCK_NUMBER == 15_537_394
        assert constants.STUDY_END_BLOCK_NUMBER == 16_950_602
        assert constants.EDEN_MISPROMISE_BLOCK_NUMBER == 15_703_347

    def test_day_index_round_trip(self):
        for offset in (0, 57, 197):
            date = constants.MERGE_DATE + datetime.timedelta(days=offset)
            assert constants.day_index(date) == offset

    def test_event_dates_inside_window(self):
        for date in (
            constants.FTX_BANKRUPTCY_DATE,
            constants.USDC_DEPEG_DATE,
            constants.MANIFOLD_INCIDENT_DATE,
            constants.NOV10_TIMESTAMP_BUG_DATE,
            *constants.OFAC_UPDATE_DATES,
        ):
            assert constants.MERGE_DATE <= date <= constants.STUDY_END_DATE

    def test_gas_constants(self):
        assert constants.TARGET_BLOCK_GAS * 2 == constants.MAX_BLOCK_GAS
        assert constants.ELASTICITY_MULTIPLIER == 2

    def test_screened_tokens_match_paper(self):
        assert set(constants.SCREENED_TOKENS) == {
            "WETH", "USDC", "DAI", "USDT", "WBTC",
        }
        assert constants.TRON_TOKEN_SYMBOL == "TRON"


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in dir(errors):
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError) or obj is errors.ReproError

    @pytest.mark.parametrize(
        "child,parent",
        [
            (errors.ExecutionError, errors.ChainError),
            (errors.InsufficientBalanceError, errors.ExecutionError),
            (errors.SwapError, errors.DefiError),
            (errors.LiquidationError, errors.DefiError),
            (errors.RelayError, errors.PBSError),
            (errors.MissingPayloadError, errors.RelayError),
        ],
    )
    def test_subsystem_nesting(self, child, parent):
        assert issubclass(child, parent)

    def test_catchable_as_library_error(self):
        with pytest.raises(errors.ReproError):
            raise errors.SwapError("nope")
