"""Unit tests for the persistent study-dataset artifact cache."""

from __future__ import annotations

import dataclasses

from repro.perf import artifacts
from repro.perf.artifacts import (
    config_content_hash,
    load_study_artifact,
    save_study_artifact,
)
from repro.simulation.config import SimulationConfig


def _config(**overrides) -> SimulationConfig:
    base = {"seed": 7, "num_days": 3, "blocks_per_day": 4}
    base.update(overrides)
    return SimulationConfig(**base)


class TestConfigHash:
    def test_stable_across_instances(self):
        assert config_content_hash(_config()) == config_content_hash(_config())

    def test_sensitive_to_every_field(self):
        base = config_content_hash(_config())
        assert config_content_hash(_config(seed=8)) != base
        assert config_content_hash(_config(enable_exec_cache=False)) != base
        changed = dataclasses.replace(_config(), num_days=5)
        assert config_content_hash(changed) != base


class TestRoundTrip:
    def test_save_then_load(self, tmp_path):
        dataset = {"daily": [1, 2, 3], "label": "fake-study"}
        path = save_study_artifact(_config(), dataset, cache_dir=tmp_path)
        assert path.exists()
        assert load_study_artifact(_config(), cache_dir=tmp_path) == dataset

    def test_wrong_config_misses(self, tmp_path):
        save_study_artifact(_config(), {"x": 1}, cache_dir=tmp_path)
        assert load_study_artifact(_config(seed=8), cache_dir=tmp_path) is None

    def test_empty_cache_misses(self, tmp_path):
        assert load_study_artifact(_config(), cache_dir=tmp_path) is None

    def test_corrupt_artifact_is_a_miss(self, tmp_path):
        path = save_study_artifact(_config(), {"x": 1}, cache_dir=tmp_path)
        path.write_bytes(b"not a pickle")
        assert load_study_artifact(_config(), cache_dir=tmp_path) is None

    def test_format_bump_invalidates(self, tmp_path, monkeypatch):
        save_study_artifact(_config(), {"x": 1}, cache_dir=tmp_path)
        monkeypatch.setattr(
            artifacts, "ARTIFACT_FORMAT", artifacts.ARTIFACT_FORMAT + 1
        )
        assert load_study_artifact(_config(), cache_dir=tmp_path) is None
