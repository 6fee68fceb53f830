"""Slot-sorted indexes over the relay data stores and the block table.

The relay data API serves rows in slot-descending order with cursor
pagination.  A naive implementation filters the store's row list per
request — O(rows) per page.  Instead, each store gets a
:class:`SlotIndex` built once per dataset: one stable numpy argsort puts
the rows in slot-descending order, the rows are rendered in that order,
and the index keeps only the negated slot keys in that order, held in an
``array("q")``, so

* seeking a cursor is one ``bisect`` — O(log n), on Python ints, with no
  call into numpy;
* a page is the index-position span ``[lo, hi)``, which the service
  answers with one slice of the rows rendered at build time;
* exact-slot queries are two bisects bracketing the slot's run.

Within one slot, rows keep store insertion order (the order the relay
recorded them), so pagination is total and deterministic even when many
rows share a slot — the property the pagination suite proves.

:class:`DatasetIndex` bundles the per-relay indexes with a combined
all-relays view (relay name ``""``) and a block-join table mapping block
hashes/numbers to execution fields (gas, tx counts, parent hash) the
relay rows themselves do not carry.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from ..core.relay_api import (
    BuilderSubmissionRecord,
    DeliveredPayload,
    ValidatorRegistration,
)
from ..datasets.columnar import as_str

ZERO_HASH = "0x" + "0" * 64


class SlotIndex:
    """The slot keys of one immutable row sequence, slot-descending.

    It holds no rows: :meth:`build` hands the builder the row order once,
    the builder renders the rows in that order, and requests need only
    index positions.  The stores are append-only and serving happens on
    finished datasets, so the order never goes stale.
    """

    def __init__(self, neg_slots: array) -> None:
        # Negated slots in index order — ascending, as bisect needs, and
        # in a C array so a seek compares Python ints and never calls
        # into numpy.
        self._neg_slots = neg_slots

    @classmethod
    def build(cls, slots: Sequence[int]) -> tuple["SlotIndex", list[int]]:
        """The index over ``slots`` (each row's key, in row order), and
        the row at each index position: slot-descending overall, row
        order within one slot (a stable argsort of the negated slots)."""
        slot_array = np.asarray(list(slots), dtype=np.int64)
        order = np.argsort(-slot_array, kind="stable")
        return cls(array("q", (-slot_array[order]).tobytes())), order.tolist()

    def __len__(self) -> int:
        return len(self._neg_slots)

    # -- seeking (the O(log n) part) ------------------------------------

    def seek(self, cursor_slot: int | None) -> int:
        """First index position whose slot is <= ``cursor_slot``.

        ``None`` means "from the top" (the highest slot).
        """
        if cursor_slot is None:
            return 0
        return bisect_left(self._neg_slots, -cursor_slot)

    def slot_span(self, slot: int) -> tuple[int, int]:
        """The [lo, hi) run of positions holding exactly ``slot``."""
        lo = bisect_left(self._neg_slots, -slot)
        return lo, bisect_right(self._neg_slots, -slot, lo)

    def slot_at(self, position: int) -> int:
        return -self._neg_slots[position]

    # -- paging (the O(limit) part) -------------------------------------

    def page_span(self, cursor: "Cursor | None", limit: int) -> tuple[int, int, str | None]:
        """The ``(start, end, next_cursor)`` index span of one page.

        The returned ``next_cursor`` resumes exactly one row past this
        page: ``<slot>_<skip>`` where ``skip`` counts rows already served
        inside that slot.  A bare ``<slot>`` cursor (the real relay API's
        form) is equivalent to ``<slot>_0``.
        """
        size = len(self._neg_slots)
        if size == 0:
            return 0, 0, None
        if cursor is None:
            start = 0
        else:
            start = self.seek(cursor.slot)
            if cursor.skip and start < size:
                if self.slot_at(start) == cursor.slot:
                    lo, hi = self.slot_span(cursor.slot)
                    start = min(lo + cursor.skip, hi)
        end = min(start + limit, size)
        next_cursor = None
        if end < size:
            next_slot = self.slot_at(end)
            skip = end - self.seek(next_slot)
            next_cursor = f"{next_slot}_{skip}" if skip else str(next_slot)
        return start, end, next_cursor


def parse_decimal(text: str) -> int:
    """``text`` as an int; raises ValueError unless it is ASCII digits.

    ``int()`` alone also accepts signs, surrounding whitespace, ``_``
    separators and non-ASCII digits such as Arabic-Indic ones, and
    ``str.isdigit`` admits the last; query integers reject all of them.
    Digit strings longer than ``int()`` converts raise its ValueError.
    """
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(text)


@dataclass(frozen=True)
class Cursor:
    """A pagination cursor: a slot plus rows already served in that slot."""

    slot: int
    skip: int = 0

    @classmethod
    def parse(cls, text: str) -> "Cursor":
        """Parse ``<slot>`` or ``<slot>_<skip>``; raises ValueError.

        Components must be bare decimal digits (:func:`parse_decimal`).
        """
        slot_text, separator, skip_text = text.partition("_")
        skip = parse_decimal(skip_text) if separator else 0
        return cls(slot=parse_decimal(slot_text), skip=skip)


class RelayIndexes:
    """The three per-store indexes behind one relay's data endpoints.

    Each index comes with a wire column: every row rendered once, in
    index order, so a page body is one blob slice.  They are built before
    serving (and, in multi-worker mode, before the fork, so the blobs are
    shared copy-on-write); ``memo`` shares fragments between the
    per-relay and combined views.  The ``pubkey`` and ``block_hash``
    lookups map to index positions, whose rows the service takes from
    the same wire columns.  A validator registered more than once (at
    several relays, in the combined view) answers with its registration
    last in store order, which is relay-name order.
    """

    def __init__(
        self,
        payloads: Sequence[DeliveredPayload],
        submissions: Sequence[BuilderSubmissionRecord],
        registrations: Sequence[ValidatorRegistration],
        join: "BlockJoin",
        memo: dict[int, bytes],
    ) -> None:
        from . import schema

        self.payloads, order = SlotIndex.build([p.slot for p in payloads])
        ordered_payloads = [payloads[i] for i in order]
        self.submissions, order = SlotIndex.build([s.slot for s in submissions])
        ordered_submissions = [submissions[i] for i in order]
        self.registrations, order = SlotIndex.build(
            [r.registered_slot for r in registrations]
        )
        # Index position of each registration, in store order; a later
        # registration of the same pubkey overwrites an earlier one.
        positions = np.empty(len(registrations), dtype=np.int64)
        positions[order] = np.arange(len(registrations))
        self.registration_by_pubkey: dict[str, int] = {
            r.validator_pubkey: position
            for r, position in zip(registrations, positions.tolist())
        }
        self.payloads_by_hash = _positions_by_hash(ordered_payloads)
        self.submissions_by_hash = _positions_by_hash(ordered_submissions)
        self.payloads_wire = schema.wire_column(
            ordered_payloads,
            lambda row: schema.encode_delivered(row, join),
            memo,
        )
        self.submissions_wire = schema.wire_column(
            ordered_submissions,
            lambda row: schema.encode_submission(row, join),
            memo,
        )
        self.registrations_wire = schema.wire_column(
            [registrations[i] for i in order],
            schema.encode_registration,
            memo,
        )


def _positions_by_hash(ordered_rows: Sequence) -> dict[str, tuple[int, ...]]:
    """Each block hash's index positions, given the rows in index order.

    Tuples, not the lists they are gathered in: a one-row tuple takes 48
    bytes where a list takes 88, and most hashes have one row.
    """
    by_hash: dict[str, list[int]] = {}
    for position, row in enumerate(ordered_rows):
        by_hash.setdefault(row.block_hash, []).append(position)
    return {block_hash: tuple(positions) for block_hash, positions in by_hash.items()}


class BlockJoin:
    """Execution-layer fields for relay rows, keyed by block hash/number.

    Delivered payloads and submissions carry only what the relay saw;
    the spec shapes also publish gas totals, transaction counts and the
    parent hash.  Those come from the collected block table — one
    vectorized pass at build time, O(1) dict lookups at serve time.
    """

    def __init__(self, table) -> None:
        self._by_hash: dict[str, int] = {}
        self._by_number: dict[int, int] = {}
        self._gas_used = table.col("gas_used")
        self._gas_limit = table.col("gas_limit")
        self._tx_counts = table.col("tx_count")
        self._hashes = [as_str(value) for value in table.col("block_hash").tolist()]
        for position, number in enumerate(table.col("number").tolist()):
            self._by_number[int(number)] = position
        for position, block_hash in enumerate(self._hashes):
            self._by_hash[block_hash] = position

    def _position(self, block_hash: str, block_number: int) -> int | None:
        position = self._by_hash.get(block_hash)
        if position is None:
            position = self._by_number.get(block_number)
        return position

    def gas_used(self, block_hash: str, block_number: int) -> int:
        position = self._position(block_hash, block_number)
        return int(self._gas_used[position]) if position is not None else 0

    def gas_limit(self, block_hash: str, block_number: int) -> int:
        position = self._position(block_hash, block_number)
        return int(self._gas_limit[position]) if position is not None else 0

    def tx_count(self, block_hash: str, block_number: int) -> int:
        position = self._position(block_hash, block_number)
        return int(self._tx_counts[position]) if position is not None else 0

    def parent_hash(self, block_number: int) -> str:
        position = self._by_number.get(block_number - 1)
        if position is None:
            return ZERO_HASH
        return self._hashes[position]


#: The relay name addressing the combined all-relays view.
ALL_RELAYS = ""


class DatasetIndex:
    """Every index the service needs, built once per dataset/artifact."""

    def __init__(
        self, relays: dict[str, RelayIndexes], join: BlockJoin
    ) -> None:
        self.relays = relays
        self.join = join

    @classmethod
    def build(
        cls, relay_stores: Mapping[str, object], table
    ) -> "DatasetIndex":
        """Index ``{name: RelayDataStore}`` plus the dataset's block table.

        The combined view (:data:`ALL_RELAYS`) concatenates stores in
        relay-name order, so within one slot rows order by relay name
        first, then store insertion — deterministic regardless of dict
        ordering.
        """
        join = BlockJoin(table)
        memo: dict[int, bytes] = {}
        relays: dict[str, RelayIndexes] = {}
        all_payloads: list[DeliveredPayload] = []
        all_submissions: list[BuilderSubmissionRecord] = []
        all_registrations: list[ValidatorRegistration] = []
        for name in sorted(relay_stores):
            store = relay_stores[name]
            payloads = store.get_payloads_delivered()
            submissions = store.get_builder_blocks_received()
            registrations = store.get_validator_registrations()
            relays[name] = RelayIndexes(
                payloads, submissions, registrations, join, memo
            )
            all_payloads.extend(payloads)
            all_submissions.extend(submissions)
            all_registrations.extend(registrations)
        relays[ALL_RELAYS] = RelayIndexes(
            all_payloads, all_submissions, all_registrations, join, memo
        )
        return cls(relays=relays, join=join)

    @classmethod
    def from_dataset(cls, dataset) -> "DatasetIndex":
        """Index a :class:`~repro.datasets.collector.StudyDataset`."""
        stores = {
            name: relay.data for name, relay in dataset.relays.items()
        }
        return cls.build(stores, dataset.table)

    def relay_names(self) -> list[str]:
        return sorted(name for name in self.relays if name != ALL_RELAYS)

    def for_relay(self, name: str | None) -> RelayIndexes | None:
        """The indexes for one relay, or the combined view for ``None``."""
        return self.relays.get(ALL_RELAYS if name is None else name)
