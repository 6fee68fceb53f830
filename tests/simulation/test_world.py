"""Tests for the world simulator over the small session world."""

import pytest

from repro.constants import MERGE_BLOCK_NUMBER
from repro.simulation import build_world
from repro.simulation import world as world_module
from repro.simulation.config import small_test_config


class TestWorldStructure:
    def test_chain_grows(self, small_world):
        assert len(small_world.chain) > 0
        assert small_world.chain.block_by_number(MERGE_BLOCK_NUMBER)

    def test_beacon_covers_all_slots(self, small_world):
        config = small_world.config
        assert len(small_world.beacon) == config.num_days * config.blocks_per_day

    def test_missed_slots_have_no_blocks(self, small_world):
        missed = small_world.beacon.missed_count()
        proposed = len(small_world.beacon.proposed())
        assert missed + proposed == len(small_world.beacon)
        assert proposed == len(small_world.chain)

    def test_block_numbers_contiguous(self, small_world):
        numbers = [block.number for block in small_world.chain]
        assert numbers == list(
            range(MERGE_BLOCK_NUMBER, MERGE_BLOCK_NUMBER + len(numbers))
        )

    def test_parent_hashes_chain(self, small_world):
        blocks = list(small_world.chain)
        for parent, child in zip(blocks, blocks[1:]):
            assert child.header.parent_hash == parent.block_hash

    def test_slot_records_align_with_chain(self, small_world):
        assert len(small_world.slot_records) == len(small_world.chain)
        for record in small_world.slot_records:
            block = small_world.chain.block_by_number(record.block_number)
            assert block.header.slot == record.slot


class TestConservation:
    def test_eth_supply_conserved(self, small_world):
        state = small_world.state
        assert state.total_supply() == state.minted_wei - state.burned_wei

    def test_base_fee_positive(self, small_world):
        for block in small_world.chain:
            assert block.header.base_fee_per_gas > 0

    def test_gas_within_limits(self, small_world):
        for block in small_world.chain:
            assert 0 <= block.header.gas_used <= block.header.gas_limit


class TestPBSActivity:
    def test_both_modes_present(self, small_world):
        modes = {record.mode for record in small_world.slot_records}
        assert "pbs" in modes
        assert "local" in modes

    def test_pbs_blocks_carry_payment(self, small_world):
        beacon = {record.slot: record for record in small_world.beacon}
        for record in small_world.slot_records:
            if record.mode != "pbs":
                continue
            block = small_world.chain.block_by_number(record.block_number)
            proposer = small_world.validators.by_index(
                beacon[record.slot].proposer_index
            )
            if block.fee_recipient == proposer.fee_recipient:
                continue  # builder paid via the fee recipient field
            last = block.last_transaction
            assert last is not None
            assert last.sender == block.fee_recipient

    def test_relays_recorded_deliveries(self, small_world):
        total = sum(
            len(relay.data.get_payloads_delivered())
            for relay in small_world.relays.values()
        )
        pbs_count = sum(1 for r in small_world.slot_records if r.mode == "pbs")
        assert total >= pbs_count  # multi-relay blocks can exceed

    def test_local_blocks_have_proposer_fee_recipient(self, small_world):
        beacon = {record.slot: record for record in small_world.beacon}
        for record in small_world.slot_records:
            if record.mode == "pbs":
                continue
            block = small_world.chain.block_by_number(record.block_number)
            proposer = small_world.validators.by_index(
                beacon[record.slot].proposer_index
            )
            assert block.fee_recipient == proposer.fee_recipient


class TestDeterminism:
    def test_same_seed_same_world(self):
        config = small_test_config(num_days=3, blocks_per_day=4)
        a = build_world(config).run()
        b = build_world(config).run()
        assert a.digest() == b.digest()
        hashes_a = [block.block_hash for block in a.chain]
        hashes_b = [block.block_hash for block in b.chain]
        assert hashes_a == hashes_b
        assert [r.mode for r in a.slot_records] == [
            r.mode for r in b.slot_records
        ]
        assert [r.payment_wei for r in a.slot_records] == [
            r.payment_wei for r in b.slot_records
        ]

    def test_different_seed_different_world(self):
        a = build_world(small_test_config(num_days=3, blocks_per_day=4, seed=1)).run()
        b = build_world(small_test_config(num_days=3, blocks_per_day=4, seed=2)).run()
        assert [blk.block_hash for blk in a.chain] != [
            blk.block_hash for blk in b.chain
        ]

    def test_run_idempotent(self, small_world):
        blocks_before = len(small_world.chain)
        small_world.run()  # second call is a no-op
        assert len(small_world.chain) == blocks_before


class TestPerfTimers:
    def test_run_times_the_day_step(self, small_world):
        assert small_world.perf.timers["day_step"] > 0.0

    def test_epbs_run_times_both_auction_phases(self):
        world = build_world(
            small_test_config(num_days=2, blocks_per_day=4, regime="epbs")
        ).run()
        assert world.perf.timers["builder_phase"] > 0.0
        assert world.perf.timers["proposer_phase"] > 0.0
        assert 0.0 < world.perf.share("builder_phase", "slot_loop") < 1.0


class TestTopUp:
    @pytest.mark.parametrize("regime", ["mev_boost", "epbs", "local"])
    def test_every_user_meets_every_floor_after_each_day_step(self, regime):
        """After its first day, the top-up checks only the users that sent a
        canonical transaction since the last one.  That is exact only if a
        top-up leaves every user at or above every floor and nothing but a
        user's own transactions lowers its balances; a user under a floor
        after any day step is a spender the top-up missed."""
        config = small_test_config(num_days=12, regime=regime)
        world = build_world(config)
        tokens, state = world.defi.tokens, world.state
        floors = (
            ("WETH", world_module._USER_WETH_FLOOR),
            ("USDC", world_module._USER_USDC_FLOOR),
            ("DAI", world_module._USER_DAI_FLOOR),
        )
        advance = world._advance_day
        stepped = []

        def advance_and_check(day):
            advance(day)
            for user in world.users:
                assert state.balance_of(user) >= world_module._USER_ETH_FLOOR, (
                    day,
                    user,
                )
                for symbol, floor in floors:
                    assert tokens.balance_of(symbol, user) >= floor, (
                        day,
                        symbol,
                        user,
                    )
            stepped.append(day)

        world._advance_day = advance_and_check
        world.run()
        assert stepped == list(range(config.num_days))
