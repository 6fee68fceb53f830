"""Hypothesis properties of the serve-layer cursor pagination.

For arbitrary generated stores (any slot multiset, in any insertion
order) and any page size, walking the cursor chain must yield every row
exactly once, slot-descending, with no duplicates or gaps across page
boundaries — and the concatenated walk must equal the unpaginated query.
The same must hold when the walk starts from an arbitrary mid-stream
cursor (the suffix property), and exact-slot queries must equal the
plain filter.  Seeks, slot spans, cursors and slot queries at absent
slots and at values beyond int64 must match a brute-force filter too.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.relay_api import (
    BuilderSubmissionRecord,
    DeliveredPayload,
    RelayDataStore,
)
from repro.datasets.columnar import BlockTable
from repro.serve.index import Cursor, SlotIndex
from repro.serve.service import QueryService
from repro.types import derive_hash, derive_pubkey

PAYLOADS_PATH = "/relay/v1/data/bidtraces/proposer_payload_delivered"
SUBMISSIONS_PATH = "/relay/v1/data/bidtraces/builder_blocks_received"

slots_strategy = st.lists(st.integers(min_value=0, max_value=12), max_size=40)
limit_strategy = st.integers(min_value=1, max_value=9)
#: Slot and cursor values a uint64-or-wider client may send.
BEYOND_INT64 = (2**63, 2**64 + 5, 10**30)
#: Probes: stored and absent slots (13 never is stored), and beyond int64.
probe_strategy = st.one_of(
    st.integers(min_value=0, max_value=13), st.sampled_from(BEYOND_INT64)
)


def _payload(slot: int, serial: int) -> DeliveredPayload:
    return DeliveredPayload(
        relay="r1",
        slot=slot,
        block_number=serial,
        block_hash=derive_hash("page", serial),
        builder_pubkey=derive_pubkey("page", "builder"),
        proposer_pubkey=derive_pubkey("page", "proposer"),
        proposer_fee_recipient="0x" + "11" * 20,
        value_claimed_wei=serial,
    )


def _submission(slot: int, serial: int) -> BuilderSubmissionRecord:
    return BuilderSubmissionRecord(
        relay="r1",
        slot=slot,
        block_number=serial,
        block_hash=derive_hash("page-sub", serial),
        builder_pubkey=derive_pubkey("page", serial % 3),
        value_claimed_wei=serial,
        accepted=serial % 2 == 0,
    )


def _service(slots: list[int], kind: str) -> QueryService:
    store = RelayDataStore("r1")
    for serial, slot in enumerate(slots):
        if kind == "payloads":
            store.record_delivery(_payload(slot, serial))
        else:
            store.record_submission(_submission(slot, serial))
    dataset = SimpleNamespace(
        relays={"r1": SimpleNamespace(data=store)},
        table=BlockTable.from_observations([]),
    )
    return QueryService(dataset)


def _walk(service: QueryService, path: str, limit: int, cursor: str | None = None):
    """Follow the x-next-cursor chain to exhaustion; returns (rows, pages)."""
    rows: list[dict] = []
    pages = 0
    params: dict[str, str] = {"limit": str(limit)}
    if cursor is not None:
        params["cursor"] = cursor
    while True:
        response = service.handle(path, dict(params))
        assert response.status == 200
        page = json.loads(response.body)
        assert len(page) <= limit
        rows.extend(page)
        pages += 1
        assert pages <= 200, "cursor chain does not terminate"
        next_cursor = response.headers.get("x-next-cursor")
        if next_cursor is None:
            # Exhausted chains never return a partial-page cursor.
            break
        assert len(page) == limit, "next cursor on a short page"
        params["cursor"] = next_cursor
    return rows


def _unpaginated(service: QueryService, path: str) -> list[dict]:
    response = service.handle(path, {"limit": "500"})
    assert response.status == 200
    assert response.headers.get("x-next-cursor") is None
    return json.loads(response.body)


@given(slots=slots_strategy, limit=limit_strategy)
@settings(max_examples=60)
def test_payload_walk_is_exactly_once_and_descending(slots, limit):
    service = _service(slots, "payloads")
    rows = _walk(service, PAYLOADS_PATH, limit)

    assert rows == _unpaginated(service, PAYLOADS_PATH)
    assert len(rows) == len(slots)
    # block_number is the per-row serial: every row exactly once.
    serials = [int(row["block_number"]) for row in rows]
    assert sorted(serials) == list(range(len(slots)))
    row_slots = [int(row["slot"]) for row in rows]
    assert row_slots == sorted(row_slots, reverse=True)
    # Within one slot, store insertion order is preserved.
    for left, right in zip(rows, rows[1:]):
        if left["slot"] == right["slot"]:
            assert int(left["block_number"]) < int(right["block_number"])


@given(slots=slots_strategy, limit=limit_strategy)
@settings(max_examples=60)
def test_submission_walk_matches_unpaginated(slots, limit):
    service = _service(slots, "submissions")
    rows = _walk(service, SUBMISSIONS_PATH, limit)
    assert rows == _unpaginated(service, SUBMISSIONS_PATH)
    serials = [int(row["value"]) for row in rows]
    assert sorted(serials) == list(range(len(slots)))


@given(
    slots=slots_strategy,
    limit=limit_strategy,
    start=st.integers(min_value=0, max_value=45),
)
@settings(max_examples=60)
def test_walk_from_any_cursor_yields_exact_suffix(slots, limit, start):
    """Resuming from position ``start`` serves exactly the tail."""
    service = _service(slots, "payloads")
    full = _unpaginated(service, PAYLOADS_PATH)
    start = min(start, len(full))
    if start == len(full):
        return
    resume = full[start]
    # Rebuild the compound cursor for position `start` the same way the
    # server would hand it out: slot + rows already served in that slot.
    skip = sum(
        1 for row in full[:start] if row["slot"] == resume["slot"]
    )
    cursor = f"{resume['slot']}_{skip}" if skip else resume["slot"]
    rows = _walk(service, PAYLOADS_PATH, limit, cursor=cursor)
    assert rows == full[start:]


@given(slots=slots_strategy, wanted=st.integers(min_value=0, max_value=12))
@settings(max_examples=60)
def test_exact_slot_query_equals_filter(slots, wanted):
    service = _service(slots, "payloads")
    response = service.handle(
        PAYLOADS_PATH, {"slot": str(wanted), "limit": "500"}
    )
    assert response.status == 200
    full = _unpaginated(service, PAYLOADS_PATH)
    assert json.loads(response.body) == [
        row for row in full if int(row["slot"]) == wanted
    ]


@given(slots=slots_strategy)
@settings(max_examples=40)
def test_slot_index_seek_matches_linear_scan(slots):
    """The O(log n) seek and slot span agree with the obvious O(n)
    definitions at stored slots, absent ones and values beyond int64, and
    answer Python ints; the build's row order is slot-descending, stable
    within a slot."""
    index, order = SlotIndex.build(slots)
    ordered = sorted(
        range(len(slots)), key=lambda i: (-slots[i], i)
    )
    assert order == ordered and len(index) == len(slots)
    for cursor_slot in [*range(-1, 15), *BEYOND_INT64]:
        expected = next(
            (
                position
                for position, row in enumerate(ordered)
                if slots[row] <= cursor_slot
            ),
            len(slots),
        )
        run = [p for p, row in enumerate(ordered) if slots[row] == cursor_slot]
        seek = index.seek(cursor_slot)
        span = index.slot_span(cursor_slot)
        assert seek == expected and type(seek) is int
        assert span == ((run[0], run[-1] + 1) if run else (expected, expected))
        assert all(type(bound) is int for bound in span)
    for position, row in enumerate(ordered):
        assert index.slot_at(position) == slots[row]
        assert type(index.slot_at(position)) is int
    assert index.page_span(None, max(len(slots), 1)) == (0, len(slots), None)


@given(
    slots=slots_strategy,
    limit=limit_strategy,
    probe=probe_strategy,
    skip=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=60)
def test_any_cursor_or_slot_value_matches_filter(slots, limit, probe, skip):
    """A cursor at any slot, present, absent or beyond int64, resumes at
    the rows the filter keeps; its skip counts only rows of that slot.  A
    slot query at any value answers that slot's rows."""
    service = _service(slots, "payloads")
    full = _unpaginated(service, PAYLOADS_PATH)
    suffix = [row for row in full if int(row["slot"]) <= probe]
    in_slot = sum(1 for row in suffix if int(row["slot"]) == probe)
    cursor = f"{probe}_{skip}" if skip else str(probe)
    assert _walk(service, PAYLOADS_PATH, limit, cursor=cursor) == suffix[
        min(skip, in_slot):
    ]
    response = service.handle(PAYLOADS_PATH, {"slot": str(probe), "limit": "500"})
    assert response.status == 200
    assert json.loads(response.body) == [
        row for row in full if int(row["slot"]) == probe
    ]


def test_empty_store_pages_cleanly():
    service = _service([], "payloads")
    response = service.handle(PAYLOADS_PATH, {"limit": "5"})
    assert response.status == 200
    assert json.loads(response.body) == []
    assert response.headers.get("x-next-cursor") is None


def test_cursor_parse_rejects_garbage():
    import pytest

    for bad in ("abc", "-1", "3_-2", "1_2_3", ""):
        with pytest.raises(ValueError):
            Cursor.parse(bad)
    assert Cursor.parse("7") == Cursor(slot=7, skip=0)
    assert Cursor.parse("7_3") == Cursor(slot=7, skip=3)


def test_np_int_slots_accepted():
    """Index construction accepts numpy integer slot keys."""
    index, order = SlotIndex.build(np.asarray([3, 9]))
    assert order == [1, 0]
    assert index.page_span(None, 10) == (0, 2, None)
    assert [index.slot_at(0), index.slot_at(1)] == [9, 3]
    assert all(type(index.slot_at(p)) is int for p in range(2))
