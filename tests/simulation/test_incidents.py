"""Incident mechanics over the medium session world.

The medium world covers the Manifold incident (day 30), the Eden
mispromise (day 23), the OFAC update (day 54), the timestamp bug (day 56)
and the FTX spike (day 57).
"""

import statistics

from repro.types import to_ether


class TestEdenMispromise:
    def test_exactly_one_mispriced_block(self, medium_world):
        mispriced = [
            record
            for record in medium_world.slot_records
            if record.winning_builder == "Eden"
            and record.claimed_wei > record.payment_wei * 2
        ]
        assert len(mispriced) == 1
        record = mispriced[0]
        assert to_ether(record.payment_wei) == 0.16
        assert record.day >= medium_world.timeline.eden_mispromise_day

    def test_scripted_entry_consumed(self, medium_world):
        assert medium_world.builders["Eden"].scripted_mispromise == {}


class TestManifoldIncident:
    def test_inflated_claims_on_incident_day_only(self, medium_world):
        day = medium_world.timeline.manifold_incident_day
        inflated = [
            record
            for record in medium_world.slot_records
            if record.winning_builder == "Builder 2"
            and "Manifold" in record.delivering_relays
            and record.claimed_wei > record.payment_wei * 10
        ]
        assert inflated, "the exploit should land at least one block"
        assert {record.day for record in inflated} == {day}

    def test_relay_outage_scheduled_once(self, medium_world):
        relay = medium_world.relays["Manifold"]
        assert relay.validation_outage_days == frozenset(
            {medium_world.timeline.manifold_incident_day}
        )


class TestTimestampBug:
    def test_fallback_blocks_are_locally_built(self, medium_world):
        fallbacks = [
            record
            for record in medium_world.slot_records
            if record.mode == "pbs-fallback"
        ]
        assert fallbacks, "the stale-timestamp day should force a fallback"
        bug_day = medium_world.timeline.timestamp_bug_day
        assert {record.day for record in fallbacks} == {bug_day}
        beacon = {record.slot: record for record in medium_world.beacon}
        for record in fallbacks:
            block = medium_world.chain.block_by_number(record.block_number)
            proposer = medium_world.validators.by_index(
                beacon[record.slot].proposer_index
            )
            assert block.fee_recipient == proposer.fee_recipient
            # The canonical block carries a valid timestamp.
            assert block.header.timestamp > 0

    def test_buggy_submissions_never_canonical(self, medium_world):
        # No canonical block carries the stale-timestamp signature.
        slot_seconds = medium_world.config.seconds_per_simulated_slot
        beacon = {record.slot: record for record in medium_world.beacon}
        for block in medium_world.chain:
            record = beacon[block.header.slot]
            assert not record.missed


class TestFtxSpike:
    def test_mev_heavier_around_ftx(self, medium_world):
        from repro.datasets import collect_study_dataset
        from repro.analysis import daily_mev_value_share

        dataset = collect_study_dataset(medium_world)
        pbs, _ = daily_mev_value_share(dataset)
        ftx_day = medium_world.timeline.ftx_bankruptcy_day
        window = [
            value
            for date, value in zip(pbs.dates, pbs.values)
            if abs(
                (date - dataset.table.row(0).date).days - ftx_day
            ) <= 2
        ]
        if window:  # medium world must cover day 57
            assert max(window) >= statistics.median(pbs.values)


class TestDailyMaintenance:
    def test_user_inventories_replenished(self, medium_world):
        tokens = medium_world.defi.tokens
        # After 70 days of heavy selling, the faucet keeps everyone solvent.
        poor = sum(
            1
            for user in medium_world.users
            if tokens.balance_of("WETH", user) < 10**18
        )
        assert poor < len(medium_world.users) * 0.2

    def test_searchers_stay_funded(self, medium_world):
        for searcher in medium_world.searchers:
            assert medium_world.state.balance_of(searcher.address) > 0

    def test_lending_market_repopulated(self, medium_world):
        positions = sum(
            len(market.positions())
            for market in medium_world.defi.markets.values()
        )
        assert positions > 0
