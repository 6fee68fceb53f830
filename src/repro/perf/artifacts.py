"""Persistent study-dataset artifacts keyed by a config content hash.

Building and running a benchmark-scale world takes minutes; the collected
:class:`~repro.datasets.collector.StudyDataset` it yields is a pure
function of the :class:`~repro.simulation.config.SimulationConfig`.  This
module caches that dataset on disk keyed by a content hash of the config,
so benchmark sessions whose config is unchanged skip the simulation
entirely (``benchmarks/conftest.py`` wires this up).

Format 4 splits a dataset across two files:

* ``study-<hash>.columns.npz`` — every numpy column of the dataset's
  :class:`~repro.datasets.columnar.BlockTable`, uncompressed
  (``np.savez``), loaded zero-copy by memory-mapping the archive and
  pointing each array at its bytes inside the zip members;
* ``study-<hash>.pkl`` — the dataset's other fields (MEV labels, relay
  stores, sanctions, inventory, ...) plus any object-dtype overflow
  columns, with the format stamp, the config hash and the column stamp.
  The load rebuilds the dataset through its constructor, so a loaded
  dataset passes the same block-order check as a collected one.

The column stamp is the ``.npz``'s ``(member, CRC-32, size)`` list, read
from its zip central directory.  The columns file is replaced before the
pickle, so a crash between the two leaves a new ``.npz`` beside an old
``.pkl``; the load compares the stamps and treats a mismatch as a miss.
The check reads no column bytes.

Invalidation rule: the cache key is a hash of *every* config field, so any
config change — including the seed — produces a new artifact file.  Code
changes are guarded by ``ARTIFACT_FORMAT``: bump it whenever simulation
semantics *or this file layout* change so stale artifacts from older code
are ignored.  Delete the cache directory at any time; it will simply be
rebuilt.
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
import logging
import mmap
import os
import pickle
import zipfile
from pathlib import Path
from typing import Any

import numpy as np
from numpy.lib import format as npy_format

from ..errors import DataError

#: Bump when simulation semantics or the artifact layout change; old
#: artifacts become unreadable.  5 = columnar .npz + pickle of the
#: dataset's other fields carrying the .npz's column stamp; the pickled
#: validator registrations carry no validator index.  6 = the pickled
#: sanctions list stores each distinct as-of view once.
ARTIFACT_FORMAT = 6

_CACHE_DIR_ENV = "REPRO_ARTIFACT_CACHE"

_LOG = logging.getLogger(__name__)


def config_content_hash(config: Any) -> str:
    """A stable hex hash of every field of a ``SimulationConfig``.

    Fields are serialized by name in sorted order, so two configs hash
    equal iff every field is equal, and dataclass field *ordering* changes
    do not invalidate artifacts (adding, removing or changing a field
    does).
    """
    payload = {
        field.name: getattr(config, field.name)
        for field in dataclasses.fields(config)
    }
    encoded = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(encoded.encode()).hexdigest()[:32]


def default_cache_dir() -> Path:
    """``$REPRO_ARTIFACT_CACHE`` if set, else ``benchmarks/.artifact_cache``."""
    override = os.environ.get(_CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path(__file__).resolve().parents[3] / "benchmarks" / ".artifact_cache"


def _artifact_path(cache_dir: Path, config_hash: str) -> Path:
    return cache_dir / f"study-{config_hash}.pkl"


def _columns_path(cache_dir: Path, config_hash: str) -> Path:
    return cache_dir / f"study-{config_hash}.columns.npz"


def _column_stamp(archive: zipfile.ZipFile) -> list[tuple[str, int, int]]:
    """The ``(member, CRC-32, size)`` list from an archive's central directory."""
    return [(info.filename, info.CRC, info.file_size) for info in archive.infolist()]


def save_study_artifact(
    config: Any, dataset: Any, cache_dir: Path | None = None
) -> Path:
    """Persist ``dataset`` under the config's content hash; returns the path.

    The numpy columns go to a sibling ``.npz`` so loads can memory-map
    them; the rest of the dataset is pickled with the columns' stamp.
    """
    cache_dir = cache_dir or default_cache_dir()
    cache_dir.mkdir(parents=True, exist_ok=True)
    config_hash = config_content_hash(config)
    path = _artifact_path(cache_dir, config_hash)

    plain, objects = dataset.table.to_arrays()
    columns_path = _columns_path(cache_dir, config_hash)
    tmp_columns = columns_path.with_suffix(".tmp")
    with open(tmp_columns, "wb") as handle:
        np.savez(handle, **plain)
    with zipfile.ZipFile(tmp_columns) as archive:
        stamp = _column_stamp(archive)
    os.replace(tmp_columns, columns_path)
    # Every field but the table pickles: the columns file carries the
    # table.  Object-dtype overflow columns (wei values beyond int64)
    # cannot be mmapped and ride along in the pickle.
    payload = {
        "format": ARTIFACT_FORMAT,
        "config_hash": config_hash,
        "fields": {
            field.name: getattr(dataset, field.name)
            for field in dataclasses.fields(dataset)
            if field.name != "table"
        },
        "object_columns": objects,
        "column_stamp": stamp,
    }

    tmp_path = path.with_suffix(".tmp")
    with open(tmp_path, "wb") as handle:
        pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp_path, path)  # atomic: concurrent readers never see halves
    return path


def load_study_artifact(config: Any, cache_dir: Path | None = None) -> Any:
    """The cached dataset for ``config``, or None on miss/stale/corrupt."""
    cache_dir = cache_dir or default_cache_dir()
    config_hash = config_content_hash(config)
    path = _artifact_path(cache_dir, config_hash)
    if not path.exists():
        return None
    try:
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
    except (
        OSError,
        pickle.UnpicklingError,
        EOFError,
        AttributeError,
        ImportError,
    ) as error:
        # AttributeError/ImportError: the pickle names a class or module
        # that older code had and this code no longer does.
        _LOG.warning("discarding stale/corrupt study artifact %s: %s", path, error)
        return None
    if not isinstance(payload, dict):
        return None
    if payload.get("format") != ARTIFACT_FORMAT:
        return None
    if payload.get("config_hash") != config_hash:
        return None
    try:
        return _attach_columns(payload, _columns_path(cache_dir, config_hash))
    except (OSError, zipfile.BadZipFile, ValueError, KeyError, DataError) as error:
        _LOG.warning(
            "discarding stale/corrupt study artifact %s: %s", path, error
        )
        return None


def _attach_columns(payload: dict, columns_path: Path) -> Any:
    """Rebuild the dataset from its pickled fields and mmapped columns."""
    from ..datasets.collector import StudyDataset
    from ..datasets.columnar import BlockTable

    plain, stamp = mmap_npz_columns(columns_path)
    if stamp != payload["column_stamp"]:
        raise ValueError(f"{columns_path.name} was not written with this pickle")
    return StudyDataset(
        table=BlockTable.from_arrays(plain, payload["object_columns"]),
        **payload["fields"],
    )


def mmap_npz_columns(
    path: Path,
) -> tuple[dict[str, np.ndarray], list[tuple[str, int, int]]]:
    """Zero-copy load of an uncompressed ``.npz``: arrays point into one mmap.

    ``np.savez`` stores members uncompressed (``ZIP_STORED``), so each
    ``.npy`` member sits contiguously in the file: seek past the zip local
    file header (30 fixed bytes + name + extra), parse the npy header, and
    wrap the raw bytes with ``np.frombuffer``.  The returned arrays are
    read-only views over a single shared memory map — no column is copied
    into RAM until touched, which is what makes warm artifact loads fast.
    Also returns the archive's column stamp (see :func:`_column_stamp`).
    """
    with open(path, "rb") as handle:
        buffer = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
    view = memoryview(buffer)
    arrays: dict[str, np.ndarray] = {}
    with zipfile.ZipFile(path) as archive:
        stamp = _column_stamp(archive)
        for info in archive.infolist():
            if info.compress_type != zipfile.ZIP_STORED:
                raise ValueError(
                    f"npz member {info.filename!r} is compressed; "
                    "cannot memory-map"
                )
            header = view[info.header_offset : info.header_offset + 30]
            name_len = int.from_bytes(header[26:28], "little")
            extra_len = int.from_bytes(header[28:30], "little")
            start = info.header_offset + 30 + name_len + extra_len
            member = view[start : start + info.file_size]
            arrays[info.filename.removesuffix(".npy")] = _npy_from_buffer(
                member
            )
    return arrays, stamp


def _npy_from_buffer(member: memoryview) -> np.ndarray:
    """An ndarray over the raw data section of an in-memory ``.npy`` image."""
    prefix = io.BytesIO(bytes(member[: min(len(member), 65536)]))
    version = npy_format.read_magic(prefix)
    if version == (1, 0):
        shape, fortran, dtype = npy_format.read_array_header_1_0(prefix)
    elif version == (2, 0):
        shape, fortran, dtype = npy_format.read_array_header_2_0(prefix)
    else:
        raise ValueError(f"unsupported npy version {version}")
    if dtype.hasobject:
        raise ValueError("object arrays cannot be memory-mapped")
    array = np.frombuffer(member, dtype=dtype, offset=prefix.tell())
    array = array.reshape(shape, order="F" if fortran else "C")
    return array
