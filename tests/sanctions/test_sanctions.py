"""Unit tests for the OFAC list and sanction screening."""

import datetime
import pickle

import pytest

from repro.chain.receipts import Receipt, transfer_log
from repro.chain.traces import CallFrame, TransactionTrace, FRAME_INTERNAL
from repro.chain.transaction import EthTransfer, TokenTransfer, TransactionFactory
from repro.constants import MERGE_DATE, OFAC_UPDATE_DATES, TRON_SANCTION_DATE
from repro.defi.tokens import TokenRegistry
from repro.errors import ConfigError
from repro.sanctions.ofac import SanctionsList, build_ofac_timeline
from repro.sanctions.screening import SanctionScreener, tx_statically_involves
from repro.types import derive_address, derive_hash, gwei

BAD = derive_address("sanc", "bad")
USER = derive_address("sanc", "user")
LISTED = datetime.date(2022, 11, 8)


@pytest.fixture
def sanctions():
    s = SanctionsList()
    s.add(BAD, LISTED)
    return s


class TestSanctionsList:
    def test_next_day_rule(self, sanctions):
        assert BAD not in sanctions.addresses_as_of(LISTED)
        assert BAD in sanctions.addresses_as_of(LISTED + datetime.timedelta(days=1))

    def test_addresses_as_of(self, sanctions):
        assert sanctions.addresses_as_of(LISTED) == frozenset()
        later = LISTED + datetime.timedelta(days=5)
        assert sanctions.addresses_as_of(later) == frozenset({BAD})

    def test_duplicate_rejected(self, sanctions):
        with pytest.raises(ConfigError):
            sanctions.add(BAD, LISTED)

    def test_token_designation_next_day(self, sanctions):
        sanctions.add_token("TRON", LISTED)
        assert "TRON" not in sanctions.tokens_as_of(LISTED)
        assert "TRON" in sanctions.tokens_as_of(
            LISTED + datetime.timedelta(days=1)
        )

    def test_update_dates(self, sanctions):
        sanctions.add(derive_address("sanc", "other"), LISTED)
        sanctions.add(derive_address("sanc", "third"), datetime.date(2023, 2, 1))
        assert sanctions.update_dates() == [LISTED, datetime.date(2023, 2, 1)]

    def test_listed_date_lookup(self, sanctions):
        listed = {entry.address: entry.listed_date for entry in sanctions.entries()}
        assert listed[BAD] == LISTED
        assert USER not in listed


class TestSharedViews:
    """Dates with the same effective entries share one frozenset."""

    DAY = datetime.timedelta(days=1)

    def test_address_view_shared_until_an_update(self):
        sanctions = build_ofac_timeline()
        november, february = OFAC_UPDATE_DATES
        before = sanctions.addresses_as_of(november)
        assert len(before) == 104
        assert sanctions.addresses_as_of(MERGE_DATE) is before
        after = sanctions.addresses_as_of(november + self.DAY)
        assert len(after) == 122 and after is not before
        assert sanctions.addresses_as_of(february) is after
        assert sanctions.addresses_as_of(november + 30 * self.DAY) is after

    def test_token_view_shared_across_the_tron_date(self):
        sanctions = build_ofac_timeline()
        before = sanctions.tokens_as_of(TRON_SANCTION_DATE)
        assert before == frozenset()
        assert sanctions.tokens_as_of(MERGE_DATE) is before
        after = sanctions.tokens_as_of(TRON_SANCTION_DATE + self.DAY)
        assert after == frozenset({"TRON"}) and after is not before
        assert sanctions.tokens_as_of(TRON_SANCTION_DATE + 60 * self.DAY) is after

    def test_add_after_queries_is_visible(self, sanctions):
        later = LISTED + 5 * self.DAY
        assert sanctions.addresses_as_of(later) == frozenset({BAD})
        assert sanctions.tokens_as_of(later) == frozenset()
        sanctions.add(USER, LISTED)
        assert sanctions.addresses_as_of(later) == frozenset({BAD, USER})
        sanctions.add_token("TRON", LISTED)
        assert sanctions.tokens_as_of(later) == frozenset({"TRON"})

    def test_dataset_holds_each_view_once(self, small_dataset):
        """The 12-day world's dataset holds one object per distinct view,
        and so does its pickle, which is what an artifact stores."""
        live = small_dataset.sanctions
        for sanctions in (live, pickle.loads(pickle.dumps(live))):
            for memo in (sanctions._addresses_as_of, sanctions._tokens_as_of):
                assert len(memo) >= 12
                views = list(memo.values())
                assert len({id(view) for view in views}) == len(set(views))


class TestDefaultTimeline:
    def test_total_entries_match_paper(self):
        sanctions = build_ofac_timeline()
        assert len(sanctions) == 134  # the paper's OFAC dataset size

    def test_batches_on_real_dates(self):
        sanctions = build_ofac_timeline()
        dates = set(sanctions.update_dates())
        assert set(OFAC_UPDATE_DATES) <= dates

    def test_initial_batch_effective_at_merge(self):
        sanctions = build_ofac_timeline()
        assert len(sanctions.addresses_as_of(MERGE_DATE)) >= 100


class TestStaticCheck:
    def test_sender_flagged(self):
        factory = TransactionFactory()
        tx = factory.create(BAD, 0, [EthTransfer(USER, 1)], gwei(20), gwei(1))
        assert tx_statically_involves(tx, {BAD})

    def test_recipient_flagged(self):
        factory = TransactionFactory()
        tx = factory.create(USER, 0, [EthTransfer(BAD, 1)], gwei(20), gwei(1))
        assert tx_statically_involves(tx, {BAD})

    def test_token_designation_flagged(self):
        factory = TransactionFactory()
        tx = factory.create(
            USER, 0, [TokenTransfer("TRON", USER, 1)], gwei(20), gwei(1)
        )
        assert tx_statically_involves(tx, set(), {"TRON"})

    def test_clean_tx_passes(self):
        factory = TransactionFactory()
        tx = factory.create(USER, 0, [EthTransfer(USER, 1)], gwei(20), gwei(1))
        assert not tx_statically_involves(tx, {BAD}, {"TRON"})


class TestScreener:
    @pytest.fixture
    def screener(self, sanctions):
        tokens = TokenRegistry()
        tokens.deploy("USDC", 6)
        tokens.deploy("ALT1")
        tokens.deploy("TRON")
        sanctions.add_token("TRON", LISTED)
        self.tokens = tokens
        return SanctionScreener(sanctions, tokens)

    def _receipt(self, logs=(), tx_hash=None):
        return Receipt(
            tx_hash=tx_hash or derive_hash("sanc", "tx"),
            status=1,
            gas_used=21_000,
            effective_gas_price=gwei(10),
            logs=tuple(logs),
        )

    def _trace(self, frames=(), tx_hash=None):
        return TransactionTrace(
            tx_hash=tx_hash or derive_hash("sanc", "tx"), frames=tuple(frames)
        )

    def test_undeployed_screened_tokens_are_skipped(self, sanctions):
        # Of the screened tokens only USDC is deployed; USDT and the rest
        # are skipped, and USDC transfers are still screened.
        tokens = TokenRegistry()
        tokens.deploy("USDC", 6)
        screener = SanctionScreener(sanctions, tokens)
        log = transfer_log(tokens.address_of("USDC"), BAD, USER, 5)
        after = LISTED + datetime.timedelta(days=2)
        assert screener.is_non_compliant(
            self._trace(), self._receipt([log]), after
        )

    def test_token_lookup_error_propagates(self, sanctions):
        class BrokenRegistry(TokenRegistry):
            def address_of(self, symbol):
                raise TypeError("not a registry lookup failure")

        with pytest.raises(TypeError, match="not a registry lookup failure"):
            SanctionScreener(sanctions, BrokenRegistry())

    def test_eth_trace_flagged(self, screener):
        trace = self._trace(
            [CallFrame(1, BAD, USER, 100, FRAME_INTERNAL)]
        )
        after = LISTED + datetime.timedelta(days=2)
        assert screener.is_non_compliant(trace, self._receipt(), after)

    def test_zero_value_trace_not_flagged(self, screener):
        trace = self._trace([CallFrame(1, BAD, USER, 0, FRAME_INTERNAL)])
        after = LISTED + datetime.timedelta(days=2)
        assert not screener.is_non_compliant(trace, self._receipt(), after)

    def test_before_effective_date_not_flagged(self, screener):
        trace = self._trace([CallFrame(1, BAD, USER, 100, FRAME_INTERNAL)])
        assert not screener.is_non_compliant(trace, self._receipt(), LISTED)

    def test_screened_token_log_flagged(self, screener):
        log = transfer_log(self.tokens.address_of("USDC"), BAD, USER, 5)
        after = LISTED + datetime.timedelta(days=2)
        assert screener.is_non_compliant(
            self._trace(), self._receipt([log]), after
        )

    def test_unscreened_token_not_flagged(self, screener):
        # ALT1 is not one of the paper's screened tokens.
        log = transfer_log(self.tokens.address_of("ALT1"), BAD, USER, 5)
        after = LISTED + datetime.timedelta(days=2)
        assert not screener.is_non_compliant(
            self._trace(), self._receipt([log]), after
        )

    def test_tron_any_transfer_flagged_after_designation(self, screener):
        log = transfer_log(self.tokens.address_of("TRON"), USER, USER, 5)
        after = LISTED + datetime.timedelta(days=2)
        assert screener.is_non_compliant(
            self._trace(), self._receipt([log]), after
        )
        assert not screener.is_non_compliant(
            self._trace(), self._receipt([log]), LISTED
        )

    def test_screen_block_collects_hashes(self, screener):
        factory = TransactionFactory()
        tx = factory.create(BAD, 0, [EthTransfer(USER, 1)], gwei(20), gwei(1))
        receipt = self._receipt(tx_hash=tx.tx_hash)
        trace = self._trace(
            [CallFrame(0, BAD, USER, 1, FRAME_INTERNAL)], tx_hash=tx.tx_hash
        )
        after = LISTED + datetime.timedelta(days=2)
        assert screener.screen_block([receipt], [trace], after) == [
            tx.tx_hash
        ]
