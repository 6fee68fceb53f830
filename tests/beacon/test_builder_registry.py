"""Unit tests for the staked-builder registry (EIP-7732 deposits)."""

import pytest

from repro.beacon.builders import (
    ACTIVATION_CHURN_PER_DAY,
    ACTIVATION_DELAY_DAYS,
    BUILDER_WITHDRAWAL_PREFIX,
    MIN_BUILDER_DEPOSIT_WEI,
    SLASH_REASON_RENEGING,
    SLASH_REASON_WITHHELD,
    BuilderRegistry,
    EpbsLedger,
    builder_withdrawal_credentials,
)
from repro.chain.state import WorldState
from repro.errors import BeaconError
from repro.types import derive_address, derive_pubkey, ether


def make_registry(ledger=None):
    state = WorldState()
    registry = BuilderRegistry(state, ledger=ledger)
    return state, registry


def fund_and_deposit(state, registry, name, day=0, amount=None, genesis=False):
    amount = MIN_BUILDER_DEPOSIT_WEI if amount is None else amount
    address = derive_address("test-builder", name)
    state.credit(address, amount + ether(1))
    registry.submit_deposit(
        name,
        derive_pubkey("test-builder", name),
        address,
        amount_wei=amount,
        day=day,
        genesis=genesis,
    )
    return address


class TestWithdrawalCredentials:
    def test_prefix_and_length(self):
        address = derive_address("test-builder", "x")
        creds = builder_withdrawal_credentials(address)
        assert creds.startswith("0x03")
        assert len(creds) == 2 + 64  # 0x + 32 bytes
        assert creds[2:4] == f"{BUILDER_WITHDRAWAL_PREFIX:02x}"
        # 11 zero bytes pad between prefix and the execution address.
        assert creds[4 : 4 + 22] == "00" * 11
        assert creds.endswith(address[2:])


class TestDeposits:
    def test_below_minimum_rejected(self):
        state, registry = make_registry()
        with pytest.raises(BeaconError):
            fund_and_deposit(
                state, registry, "small", amount=MIN_BUILDER_DEPOSIT_WEI - 1
            )

    def test_duplicate_rejected(self):
        state, registry = make_registry()
        fund_and_deposit(state, registry, "dup")
        with pytest.raises(BeaconError):
            fund_and_deposit(state, registry, "dup")

    def test_deposit_moves_stake_to_escrow(self):
        ledger = EpbsLedger()
        state, registry = make_registry(ledger)
        address = fund_and_deposit(state, registry, "b0", day=0)
        registry.process_day(0)
        record = registry.record("b0")
        assert record.funded
        assert record.collateral_wei == MIN_BUILDER_DEPOSIT_WEI
        assert state.balance_of(registry.escrow_address) == MIN_BUILDER_DEPOSIT_WEI
        assert state.balance_of(address) == ether(1)
        assert len(ledger.deposits) == 1
        assert ledger.deposits[0].withdrawal_credentials.startswith("0x03")

    def test_genesis_builder_active_immediately(self):
        state, registry = make_registry()
        fund_and_deposit(state, registry, "gen", day=0, genesis=True)
        registry.process_day(0)
        assert registry.is_active("gen", 0)


class TestActivationQueue:
    def test_activation_delay(self):
        state, registry = make_registry()
        fund_and_deposit(state, registry, "late", day=0)
        for day in range(ACTIVATION_DELAY_DAYS + 1):
            registry.process_day(day)
        assert not registry.is_active("late", ACTIVATION_DELAY_DAYS - 1)
        assert registry.is_active("late", ACTIVATION_DELAY_DAYS)

    def test_churn_limits_activations_per_day(self):
        state, registry = make_registry()
        count = ACTIVATION_CHURN_PER_DAY + 2
        names = [f"b{i}" for i in range(count)]
        for name in names:
            fund_and_deposit(state, registry, name, day=0)
        for day in range(ACTIVATION_DELAY_DAYS + 2):
            registry.process_day(day)
        first_day = ACTIVATION_DELAY_DAYS
        active_first = [n for n in names if registry.is_active(n, first_day)]
        active_next = [n for n in names if registry.is_active(n, first_day + 1)]
        assert len(active_first) == ACTIVATION_CHURN_PER_DAY
        assert len(active_next) == count
        # FIFO: the first-deposited builders clear the queue first.
        assert active_first == names[:ACTIVATION_CHURN_PER_DAY]


class TestCollateral:
    def test_charge_capped_by_collateral(self):
        # A shortfall larger than the stake settles only up to the stake.
        state, registry = make_registry()
        fund_and_deposit(state, registry, "b0")
        registry.process_day(0)
        recipient = derive_address("test", "proposer")
        huge = MIN_BUILDER_DEPOSIT_WEI * 3
        settled = registry.charge("b0", recipient, huge)
        assert settled == MIN_BUILDER_DEPOSIT_WEI
        assert state.balance_of(recipient) == MIN_BUILDER_DEPOSIT_WEI
        assert registry.record("b0").collateral_wei == 0
        # Nothing left to settle a second time.
        assert registry.charge("b0", recipient, ether(1)) == 0

    def test_slash_burns_and_deactivates(self):
        ledger = EpbsLedger()
        state, registry = make_registry(ledger)
        fund_and_deposit(state, registry, "b0", genesis=True)
        registry.process_day(0)
        assert registry.is_active("b0", 0)
        burned_before = state.burned_wei
        registry.slash("b0", ether(1), 3, SLASH_REASON_WITHHELD)
        record = registry.record("b0")
        assert record.slashed
        assert record.slashed_day == 3
        assert not registry.is_active("b0", 3)
        assert not registry.is_active("b0", 100)
        assert state.burned_wei - burned_before == ether(1)
        assert record.collateral_wei == MIN_BUILDER_DEPOSIT_WEI - ether(1)
        assert [s.reason for s in ledger.slashings] == [SLASH_REASON_WITHHELD]

    def test_slash_capped_by_collateral(self):
        state, registry = make_registry()
        fund_and_deposit(state, registry, "b0", genesis=True)
        registry.process_day(0)
        burned_before = state.burned_wei
        registry.slash(
            "b0", MIN_BUILDER_DEPOSIT_WEI * 10, 1, SLASH_REASON_RENEGING
        )
        assert state.burned_wei - burned_before == MIN_BUILDER_DEPOSIT_WEI
        assert registry.record("b0").collateral_wei == 0


class TestMidEpochDeactivation:
    def test_slashed_builder_stops_winning_in_world(self):
        # A builder slashed mid-run must vanish from subsequent auctions.
        from repro.simulation.config import small_test_config
        from repro.simulation.faults import FAULT_WITHHELD_PAYLOAD, FaultSpec
        from repro.simulation.world import build_world

        base = small_test_config(regime="epbs")
        withhold = FaultSpec(
            kind=FAULT_WITHHELD_PAYLOAD, target="Builder 1", day=9, claim_eth=2.0
        )
        config = base.with_overrides(faults=base.faults + (withhold,))
        world = build_world(config).run()

        slashed_day = world.builder_registry.record("Builder 1").slashed_day
        assert slashed_day == 9
        bpd = config.blocks_per_day
        later_winners = {
            record.winning_builder
            for record in world.slot_records
            if record.slot >= world.slot_records[0].slot + (slashed_day + 1) * bpd
        }
        assert "Builder 1" not in later_winners
        # Exactly one slashing: deactivation is immediate.
        assert len(world.epbs_ledger.slashings) == 1
