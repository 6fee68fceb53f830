"""Tests for CSV/JSON dataset export."""

import csv
import json
import pathlib

import pytest

from repro.datasets.storage import (
    BLOCKS_CSV,
    DELIVERIES_CSV,
    INVENTORY_JSON,
    MEV_CSV,
    export_study_dataset,
)


@pytest.fixture(scope="module")
def exported(small_dataset, tmp_path_factory):
    directory = tmp_path_factory.mktemp("export")
    written = export_study_dataset(small_dataset, directory)
    return directory, written


class TestExport:
    def test_all_files_written(self, exported):
        directory, written = exported
        assert set(written) == {
            BLOCKS_CSV, DELIVERIES_CSV, MEV_CSV, INVENTORY_JSON,
        }
        for path in written.values():
            assert pathlib.Path(path).exists()

    def test_block_rows_round_trip(self, exported, small_dataset):
        directory, _ = exported
        with (directory / BLOCKS_CSV).open(newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        table = small_dataset.table
        assert len(rows) == len(table)
        first = rows[0]
        numbers = table.col("number").tolist()
        obs = table.row(numbers.index(int(first["number"])))
        assert first["block_hash"] == obs.block_hash
        assert int(first["is_pbs"]) == int(obs.is_pbs)
        assert int(first["tx_count"]) == obs.tx_count

    def test_inventory_json(self, exported, small_dataset):
        directory, _ = exported
        payload = json.loads((directory / INVENTORY_JSON).read_text())
        assert payload["blocks"] == small_dataset.inventory.blocks
        assert payload["ofac_addresses"] == 134

    def test_deliveries_cover_relay_data(self, exported, small_dataset):
        directory, _ = exported
        lines = (directory / DELIVERIES_CSV).read_text().strip().splitlines()
        expected = sum(
            len(relay.data.get_payloads_delivered())
            for relay in small_dataset.relays.values()
        )
        assert len(lines) - 1 == expected  # minus header

    def test_mev_rows(self, exported, small_dataset):
        directory, _ = exported
        lines = (directory / MEV_CSV).read_text().strip().splitlines()
        assert len(lines) - 1 == len(small_dataset.mev)
