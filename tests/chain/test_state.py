"""Unit tests for the forkable account state."""

import pytest

from repro.chain.exec_cache import COINBASE_SENTINEL, ReadLog
from repro.chain.state import WorldState
from repro.errors import ChainError, InsufficientBalanceError
from repro.types import derive_address, ether

ALICE = derive_address("test", "alice")
BOB = derive_address("test", "bob")


@pytest.fixture
def state():
    s = WorldState()
    s.mint(ALICE, ether(10))
    return s


class TestBalances:
    def test_mint_and_read(self, state):
        assert state.balance_of(ALICE) == ether(10)

    def test_unknown_account_is_zero(self, state):
        assert state.balance_of(BOB) == 0

    def test_transfer(self, state):
        state.transfer(ALICE, BOB, ether(4))
        assert state.balance_of(ALICE) == ether(6)
        assert state.balance_of(BOB) == ether(4)

    def test_overdraft_rejected(self, state):
        with pytest.raises(InsufficientBalanceError):
            state.transfer(ALICE, BOB, ether(11))

    def test_overdraft_leaves_balances_intact(self, state):
        with pytest.raises(InsufficientBalanceError):
            state.debit(ALICE, ether(11))
        assert state.balance_of(ALICE) == ether(10)

    def test_negative_amounts_rejected(self, state):
        with pytest.raises(ChainError):
            state.credit(ALICE, -1)
        with pytest.raises(ChainError):
            state.debit(ALICE, -1)
        with pytest.raises(ChainError):
            state.mint(ALICE, -1)

    def test_burn_tracks_counter(self, state):
        state.burn(ALICE, ether(2))
        assert state.balance_of(ALICE) == ether(8)
        assert state.burned_wei == ether(2)

    def test_record_burn_rejects_negative(self, state):
        with pytest.raises(ChainError):
            state.record_burn(-1)


class TestConservation:
    def test_supply_equals_minted_minus_burned(self, state):
        state.mint(BOB, ether(3))
        state.transfer(ALICE, BOB, ether(1))
        state.burn(BOB, ether(2))
        assert state.total_supply() == state.minted_wei - state.burned_wei


class TestNonces:
    def test_initial_nonce_zero(self, state):
        assert state.nonce_of(ALICE) == 0

    def test_bump(self, state):
        assert state.bump_nonce(ALICE) == 0
        assert state.nonce_of(ALICE) == 1


class TestForking:
    def test_fork_reads_parent(self, state):
        fork = state.fork()
        assert fork.balance_of(ALICE) == ether(10)

    def test_fork_write_isolated(self, state):
        fork = state.fork()
        fork.transfer(ALICE, BOB, ether(5))
        assert state.balance_of(BOB) == 0
        assert fork.balance_of(BOB) == ether(5)

    def test_commit_merges(self, state):
        fork = state.fork()
        fork.transfer(ALICE, BOB, ether(5))
        fork.commit()
        assert state.balance_of(BOB) == ether(5)

    def test_commit_root_rejected(self, state):
        with pytest.raises(ChainError):
            state.commit()

    def test_nested_forks(self, state):
        fork1 = state.fork()
        fork2 = fork1.fork()
        fork2.transfer(ALICE, BOB, ether(1))
        fork2.commit()
        assert fork1.balance_of(BOB) == ether(1)
        assert state.balance_of(BOB) == 0
        fork1.commit()
        assert state.balance_of(BOB) == ether(1)

    def test_burn_counters_merge_on_commit(self, state):
        fork = state.fork()
        fork.burn(ALICE, ether(1))
        assert state.burned_wei == 0
        fork.commit()
        assert state.burned_wei == ether(1)

    def test_conservation_across_forks(self, state):
        fork = state.fork()
        fork.mint(BOB, ether(7))
        fork.burn(ALICE, ether(3))
        fork.commit()
        assert state.total_supply() == state.minted_wei - state.burned_wei


class TestRecordingFork:
    """``state.fork(log)``: the execution cache's recording overlay."""

    @pytest.fixture
    def caller(self, state):
        """A builder's fork holding a write the recording must read."""
        fork = state.fork()
        fork.mint(BOB, 3)
        return fork

    def test_logs_only_escaping_reads_with_the_value_below(self, caller):
        log = ReadLog()
        recording = caller.fork(log)
        recording.transfer(ALICE, BOB, ether(1))
        recording.bump_nonce(ALICE)
        # Served by the recording's own writes: not logged again.
        assert recording.balance_of(ALICE) == ether(9)
        assert recording.nonce_of(ALICE) == 1
        assert log.balances == [(ALICE, ether(10)), (BOB, 3)]
        assert log.nonces == [(ALICE, 0)]
        assert log.protocols == []

    def test_missing_balance_and_nonce_are_logged_as_zero(self, caller):
        log = ReadLog()
        recording = caller.fork(log)
        carol = derive_address("test", "carol")
        assert recording.balance_of(carol) == 0
        assert recording.nonce_of(carol) == 0
        assert log.balances == [(carol, 0)]
        assert log.nonces == [(carol, 0)]

    def test_coinbase_sentinel_is_never_logged(self, caller):
        log = ReadLog()
        recording = caller.fork(log)
        recording.credit(COINBASE_SENTINEL, 5)
        assert recording.balance_of(COINBASE_SENTINEL) == 5
        assert log.balances == []

    def test_fork_of_a_recording_records_into_the_same_log(self, caller):
        log = ReadLog()
        recording = caller.fork(log)
        child = recording.fork()
        child.transfer(ALICE, BOB, ether(2))
        assert log.balances == [(ALICE, ether(10)), (BOB, 3)]
        child.commit()
        assert recording.balance_of(BOB) == 3 + ether(2)
        assert log.balances == [(ALICE, ether(10)), (BOB, 3)]

    def test_caller_is_untouched(self, state, caller):
        recording = caller.fork(ReadLog())
        recording.transfer(ALICE, BOB, ether(1))
        recording.burn(ALICE, ether(1))
        recording.bump_nonce(ALICE)
        assert caller.balance_of(ALICE) == ether(10)
        assert caller.balance_of(BOB) == 3
        assert caller.nonce_of(ALICE) == 0
        assert caller.burned_wei == 0
        assert state.balance_of(BOB) == 0
