"""A small copy-on-write mapping used for speculative execution.

Builders fork the whole protocol state once per candidate transaction and
per candidate block; a full copy would dominate simulation time.  ``CowDict``
keeps writes in a local layer and falls back to the parent for reads, with
O(touched keys) forks and commits.

``RecordingCowDict`` is the layer the execution cache records through: it
logs every read that escapes it, with the value seen below it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generic, Iterable, Iterator, Optional, TypeVar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .chain.exec_cache import ReadLog

K = TypeVar("K")
V = TypeVar("V")

_TOMBSTONE = object()
_MISSING = object()


class CowDict(Generic[K, V]):
    """Mapping with copy-on-write forking and explicit commit."""

    def __init__(self, parent: Optional["CowDict[K, V]"] = None) -> None:
        self._parent = parent
        self._local: dict[K, object] = {}

    # -- mapping protocol ------------------------------------------------

    def get(self, key: K, default: V | None = None) -> V | None:
        node: Optional[CowDict[K, V]] = self
        while node is not None:
            if key in node._local:
                value = node._local[key]
                return default if value is _TOMBSTONE else value  # type: ignore[return-value]
            node = node._parent
        return default

    def __getitem__(self, key: K) -> V:
        sentinel = object()
        value = self.get(key, sentinel)  # type: ignore[arg-type]
        if value is sentinel:
            raise KeyError(key)
        return value  # type: ignore[return-value]

    def __setitem__(self, key: K, value: V) -> None:
        self._local[key] = value

    def __delitem__(self, key: K) -> None:
        if key not in self:
            raise KeyError(key)
        self._local[key] = _TOMBSTONE

    def store(self, pairs: Iterable[tuple[K, V | None]]) -> None:
        """Write ``(key, value)`` pairs into this layer; ``None`` deletes.

        The inverse of :meth:`RecordingCowDict.writes`: a deletion lands as
        a tombstone in this layer, where committing the recorded layer would
        have left it, so replayed state matches direct execution.
        """
        local = self._local
        for key, value in pairs:
            local[key] = _TOMBSTONE if value is None else value

    def __contains__(self, key: K) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel  # type: ignore[arg-type]

    def keys(self) -> Iterator[K]:
        """All live keys, walking the full parent chain (O(total keys))."""
        deleted: set[K] = set()
        seen: set[K] = set()
        node: Optional[CowDict[K, V]] = self
        while node is not None:
            for key, value in node._local.items():
                if key in seen or key in deleted:
                    continue
                if value is _TOMBSTONE:
                    deleted.add(key)
                else:
                    seen.add(key)
                    yield key
            node = node._parent

    def items(self) -> Iterator[tuple[K, V]]:
        for key in self.keys():
            yield key, self[key]

    def __iter__(self) -> Iterator[K]:
        return self.keys()

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    # -- forking -----------------------------------------------------------

    def fork(
        self, log: "ReadLog | None" = None, domain: str = ""
    ) -> "CowDict[K, V]":
        """Create a child layer; reads fall through, writes stay local.

        Given a read log, the child is a :class:`RecordingCowDict` that logs
        the reads escaping it under ``domain``.
        """
        if log is None:
            return CowDict(parent=self)
        return RecordingCowDict(self, log, domain)

    def commit(self) -> None:
        """Merge this layer's writes (including deletions) into the parent."""
        if self._parent is None:
            raise ValueError("cannot commit a root CowDict")
        self._parent._local.update(self._local)
        self._local.clear()


class RecordingCowDict(CowDict[K, V]):
    """A COW layer that logs reads escaping the recording boundary.

    Reads satisfied inside the recording chain (this layer and any forks
    taken above it during action execution) are internal; only the value
    observed from the non-recording parent below enters the log, as
    ``(domain, key, value)`` with ``None`` for a missing key (no stored
    value is ever ``None``).
    """

    def __init__(self, parent: CowDict[K, V], log: "ReadLog", domain: str) -> None:
        super().__init__(parent=parent)
        self._log = log
        self.domain = domain

    def get(self, key: K, default: V | None = None) -> V | None:
        node: Optional[CowDict[K, V]] = self
        while isinstance(node, RecordingCowDict):
            if key in node._local:
                value = node._local[key]
                return default if value is _TOMBSTONE else value  # type: ignore[return-value]
            node = node._parent
        value = node.get(key, _MISSING) if node is not None else _MISSING  # type: ignore[arg-type]
        self._log.record(self.domain, key, None if value is _MISSING else value)
        return default if value is _MISSING else value  # type: ignore[return-value]

    def fork(
        self, log: "ReadLog | None" = None, domain: str = ""
    ) -> "RecordingCowDict[K, V]":
        """A child that records into this layer's log, under its domain."""
        return RecordingCowDict(self, self._log, self.domain)

    def writes(self) -> list[tuple[K, V | None]]:
        """This layer's writes as ``(key, value)`` pairs in first-write
        order; a deletion is ``None``."""
        return [
            (key, None if value is _TOMBSTONE else value)  # type: ignore[misc]
            for key, value in self._local.items()
        ]
