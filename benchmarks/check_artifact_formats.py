"""CI smoke check for the study-artifact format (DESIGN.md §6d).

Builds a small world, saves the collected dataset (``.npz`` columns +
pickled remainder) and asserts that the warm load comes back
mmap-backed and preserves ``content_digest()`` bit for bit.

Run as ``PYTHONPATH=src python benchmarks/check_artifact_formats.py``.
"""

from __future__ import annotations

import mmap
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.datasets import collect_study_dataset
from repro.perf.artifacts import load_study_artifact, save_study_artifact
from repro.simulation import SimulationConfig, build_world


def _mmap_backed(column: np.ndarray) -> bool:
    """True when the column's buffer is a view into a memory map."""
    while isinstance(column.base, np.ndarray):
        column = column.base
    return isinstance(column.base, memoryview) and isinstance(
        column.base.obj, mmap.mmap
    )


def main() -> None:
    config = SimulationConfig(seed=7, num_days=30, blocks_per_day=24)
    world = build_world(config).run()
    dataset = collect_study_dataset(world)
    digest = dataset.content_digest()

    with tempfile.TemporaryDirectory(prefix="repro-artifact-ci-") as tmp:
        cache_dir = Path(tmp)
        save_study_artifact(config, dataset, cache_dir)
        start = time.perf_counter()
        loaded = load_study_artifact(config, cache_dir)
        load_secs = time.perf_counter() - start
        assert loaded is not None, "artifact failed to load"
        assert all(
            _mmap_backed(column)
            for column in loaded.table.columns.values()
            if column.dtype != object
        ), "columnar artifact did not come back mmap-backed"
        assert loaded.content_digest() == digest, (
            "columnar round-trip changed the dataset digest"
        )

    print(f"columnar warm load {load_secs * 1000:.2f} ms, digest {digest[:16]}")


if __name__ == "__main__":
    main()
