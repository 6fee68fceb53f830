"""Unit tests for the persistent study-dataset artifact cache."""

from __future__ import annotations

import dataclasses
import datetime
import importlib
import logging
import mmap
import pickle
import shutil
import sys

import numpy as np
import pytest

from repro.datasets.collector import StudyDataset
from repro.datasets.records import BlockObservation, DatasetInventory
from repro.mev.labels import MevDataset
from repro.perf import artifacts
from repro.perf.artifacts import (
    config_content_hash,
    load_study_artifact,
    save_study_artifact,
)
from repro.sanctions.ofac import SanctionsList
from repro.simulation.config import SimulationConfig
from repro.types import derive_address, derive_hash


def _config(**overrides) -> SimulationConfig:
    base = {"seed": 7, "num_days": 3, "blocks_per_day": 4}
    base.update(overrides)
    return SimulationConfig(**base)


def _dataset(*numbers: int) -> StudyDataset:
    """A tiny hand-built dataset: one observation per block number."""
    observations = [
        BlockObservation(
            number=number,
            block_hash=derive_hash("artifact", number),
            slot=number,
            date=datetime.date(2022, 10, 1),
            proposer_index=0,
            proposer_entity="Lido",
            proposer_fee_recipient=derive_address("artifact", "proposer"),
            fee_recipient=derive_address("artifact", "builder"),
            extra_data="",
            gas_used=15_000_000,
            gas_limit=30_000_000,
            base_fee_per_gas=10,
            burned_wei=100,
            priority_fees_wei=50,
            direct_transfers_wei=5,
            tx_count=10,
            private_tx_count=1,
            builder_payment_wei=number,
        )
        for number in numbers
    ]
    return StudyDataset(
        blocks=observations,
        mev=MevDataset(),
        relays={},
        sanctions=SanctionsList(),
        inventory=DatasetInventory(
            blocks=len(observations), transactions=0, logs=0, traces=0,
            mev_labels_by_source={}, mev_labels_union=0,
            mempool_arrival_times=0, relay_data_entries=0, ofac_addresses=0,
        ),
    )


class TestConfigHash:
    def test_stable_across_instances(self):
        assert config_content_hash(_config()) == config_content_hash(_config())

    def test_sensitive_to_every_field(self):
        base = config_content_hash(_config())
        assert config_content_hash(_config(seed=8)) != base
        assert config_content_hash(_config(regime="epbs")) != base
        assert config_content_hash(_config(faults=())) != base
        changed = dataclasses.replace(_config(), num_days=5)
        assert config_content_hash(changed) != base


def _mmap_backed(column: np.ndarray) -> bool:
    """True when the column's buffer is a view into a memory map."""
    while isinstance(column.base, np.ndarray):
        column = column.base
    return isinstance(column.base, memoryview) and isinstance(
        column.base.obj, mmap.mmap
    )


class TestRoundTrip:
    def test_collected_dataset_loads_mmap_backed(
        self, medium_world, medium_dataset, tmp_path
    ):
        # A collected 70-day dataset, not a hand-built one: every plain
        # column must come back as a view into the mapped .npz, and the
        # round trip must not change a single field value.
        save_study_artifact(medium_world.config, medium_dataset, tmp_path)
        loaded = load_study_artifact(medium_world.config, tmp_path)
        assert loaded is not None
        plain = {
            name: column
            for name, column in loaded.table.columns.items()
            if column.dtype != object
        }
        assert plain
        assert [name for name in plain if not _mmap_backed(plain[name])] == []
        assert loaded.content_digest() == medium_dataset.content_digest()

    def test_save_then_load(self, tmp_path):
        dataset = _dataset(1, 2, 3)
        path = save_study_artifact(_config(), dataset, cache_dir=tmp_path)
        assert path.exists()
        loaded = load_study_artifact(_config(), cache_dir=tmp_path)
        assert list(loaded.blocks) == list(dataset.blocks)
        assert loaded.content_digest() == dataset.content_digest()

    def test_wrong_config_misses(self, tmp_path):
        save_study_artifact(_config(), _dataset(1), cache_dir=tmp_path)
        assert load_study_artifact(_config(seed=8), cache_dir=tmp_path) is None

    def test_empty_cache_misses(self, tmp_path):
        assert load_study_artifact(_config(), cache_dir=tmp_path) is None

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        path = save_study_artifact(_config(), _dataset(1), cache_dir=tmp_path)
        path.write_bytes(b"not a pickle")
        assert load_study_artifact(_config(), cache_dir=tmp_path) is None

    def test_format_bump_invalidates(self, tmp_path, monkeypatch):
        save_study_artifact(_config(), _dataset(1), cache_dir=tmp_path)
        monkeypatch.setattr(
            artifacts, "ARTIFACT_FORMAT", artifacts.ARTIFACT_FORMAT + 1
        )
        assert load_study_artifact(_config(), cache_dir=tmp_path) is None

    def test_columns_from_another_save_are_a_miss(self, tmp_path, caplog):
        # A crash between replacing the .npz and the .pkl leaves new
        # columns beside an old pickle; the column stamp catches it.
        kept = save_study_artifact(_config(), _dataset(1, 2), cache_dir=tmp_path)
        other = save_study_artifact(
            _config(seed=8), _dataset(3), cache_dir=tmp_path
        )
        shutil.copyfile(
            other.with_suffix(".columns.npz"), kept.with_suffix(".columns.npz")
        )
        with caplog.at_level(logging.WARNING, logger=artifacts.__name__):
            assert load_study_artifact(_config(), cache_dir=tmp_path) is None
        assert "discarding stale/corrupt study artifact" in caplog.text

    @pytest.mark.parametrize("removed", ["module", "class"])
    def test_pickle_naming_removed_code_is_a_miss(
        self, tmp_path, monkeypatch, caplog, removed
    ):
        # An artifact written by older code can name a module or class
        # this code no longer has; loading it is a miss, not a crash.
        source = tmp_path / "stale_artifact_module.py"
        source.write_text("class Gone:\n    pass\n")
        monkeypatch.syspath_prepend(str(tmp_path))
        module = importlib.import_module("stale_artifact_module")
        path = save_study_artifact(_config(), _dataset(1), cache_dir=tmp_path)
        path.write_bytes(pickle.dumps(module.Gone()))
        if removed == "module":
            monkeypatch.delitem(sys.modules, module.__name__)
            source.unlink()
            importlib.invalidate_caches()
        else:
            monkeypatch.delattr(module, "Gone")
        with caplog.at_level(logging.WARNING, logger=artifacts.__name__):
            assert load_study_artifact(_config(), cache_dir=tmp_path) is None
        assert "discarding stale/corrupt study artifact" in caplog.text
