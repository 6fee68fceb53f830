"""Slot-sorted indexes over the relay data stores and the block table.

The relay data API serves rows in slot-descending order with cursor
pagination.  A naive implementation filters the store's row list per
request — O(rows) per page.  Instead, each store gets a
:class:`SlotIndex` built once per dataset: a slot-descending permutation
of row positions plus the sorted slot keys, so

* seeking a cursor is one ``np.searchsorted`` — O(log n);
* materializing a page is an O(limit) slice of the permutation;
* exact-slot queries are two binary searches bracketing the slot's run.

Within one slot, rows keep store insertion order (the order the relay
recorded them), so pagination is total and deterministic even when many
rows share a slot — the property the pagination suite proves.

:class:`DatasetIndex` bundles the per-relay indexes with a combined
all-relays view (relay name ``""``) and a block-join table mapping block
hashes/numbers to execution fields (gas, tx counts, parent hash) the
relay rows themselves do not carry.
"""

from __future__ import annotations

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
    """A slot-descending view over one immutable row sequence.

    ``rows`` is snapshotted at build time (the stores are append-only and
    serving happens on finished datasets, so the snapshot never goes
    stale).  ``slot_of`` extracts the ordering key from one row.
    """

    def __init__(self, rows: Sequence, slots: Sequence[int]) -> None:
        self.rows: tuple = tuple(rows)
        slot_array = np.asarray(list(slots), dtype=np.int64)
        if slot_array.shape[0] != len(self.rows):
            raise ValueError("one slot key per row required")
        # Stable argsort of the negated slots: slot-descending overall,
        # insertion-ascending within one slot.
        self._order = np.argsort(-slot_array, kind="stable")
        # Negated slots in index order — ascending, as searchsorted needs.
        self._neg_slots = -slot_array[self._order]

    def __len__(self) -> int:
        return len(self.rows)

    # -- seeking (the O(log n) part) ------------------------------------

    def seek(self, cursor_slot: int | None) -> int:
        """First index position whose slot is <= ``cursor_slot``.

        ``None`` means "from the top" (the highest slot).
        """
        if cursor_slot is None:
            return 0
        return int(np.searchsorted(self._neg_slots, -cursor_slot, side="left"))

    def slot_span(self, slot: int) -> tuple[int, int]:
        """The [lo, hi) run of positions holding exactly ``slot``."""
        lo = int(np.searchsorted(self._neg_slots, -slot, side="left"))
        hi = int(np.searchsorted(self._neg_slots, -slot, side="right"))
        return lo, hi

    def slot_at(self, position: int) -> int:
        return -int(self._neg_slots[position])

    # -- paging (the O(limit) part) -------------------------------------

    def rows_at(self, lo: int, hi: int) -> tuple:
        """Rows for index positions [lo, hi), in index order."""
        return tuple(self.rows[i] for i in self._order[lo:hi])

    def ordered_rows(self) -> tuple:
        """Every row, in index (slot-descending) order."""
        return self.rows_at(0, len(self.rows))

    def page_span(self, cursor: "Cursor | None", limit: int) -> tuple[int, int, str | None]:
        """The ``(start, end, next_cursor)`` index span of one page.

        The returned ``next_cursor`` resumes exactly one row past this
        page: ``<slot>_<skip>`` where ``skip`` counts rows already served
        inside that slot.  A bare ``<slot>`` cursor (the real relay API's
        form) is equivalent to ``<slot>_0``.
        """
        if len(self.rows) == 0:
            return 0, 0, None
        if cursor is None:
            start = 0
        else:
            start = self.seek(cursor.slot)
            if cursor.skip and start < len(self.rows):
                if self.slot_at(start) == cursor.slot:
                    lo, hi = self.slot_span(cursor.slot)
                    start = min(lo + cursor.skip, hi)
        end = min(start + limit, len(self.rows))
        next_cursor = None
        if end < len(self.rows):
            next_slot = self.slot_at(end)
            slot_lo, _ = self.slot_span(next_slot)
            skip = end - slot_lo
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
    per-relay and combined views.
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

        self.payloads = SlotIndex(payloads, [p.slot for p in payloads])
        self.submissions = SlotIndex(submissions, [s.slot for s in submissions])
        self.registrations = SlotIndex(
            registrations, [r.registered_slot for r in registrations]
        )
        self.registration_by_pubkey: dict[str, ValidatorRegistration] = {
            r.validator_pubkey: r for r in registrations
        }
        self.payloads_by_hash: dict[str, list[DeliveredPayload]] = {}
        for payload in self.payloads.rows_at(0, len(payloads)):
            self.payloads_by_hash.setdefault(payload.block_hash, []).append(
                payload
            )
        self.submissions_by_hash: dict[str, list[BuilderSubmissionRecord]] = {}
        for record in self.submissions.rows_at(0, len(submissions)):
            self.submissions_by_hash.setdefault(record.block_hash, []).append(
                record
            )
        self.payloads_wire = schema.wire_column(
            self.payloads.ordered_rows(),
            lambda row: schema.encode_delivered(row, join),
            memo,
        )
        self.submissions_wire = schema.wire_column(
            self.submissions.ordered_rows(),
            lambda row: schema.encode_submission(row, join),
            memo,
        )
        self.registrations_wire = schema.wire_column(
            self.registrations.ordered_rows(),
            schema.encode_registration,
            memo,
        )


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
