"""The wire-encoding cache byte-identity contract.

Every bid-trace and registration page is a slice of an offsets+blob
column (:class:`repro.serve.schema.WireColumn`) rendered at index time,
and every ``pubkey`` and ``block_hash`` lookup answers with fragments of
the same columns.  Each response must equal ``dump_json`` of the live
``encode_*`` output for the same rows — on the hand-built golden dataset
and on run datasets (collected, and rebuilt from its observations) —
and a forked child sharing the parent's blobs copy-on-write (the
multi-worker serving configuration) must serve the same bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

import pytest

from repro.datasets.columnar import BlockTable
from repro.serve.index import Cursor
from repro.serve.schema import (
    WireColumn,
    dump_json,
    encode_delivered,
    encode_registration,
    encode_submission,
    wire_column,
)
from repro.serve.service import STATIC_ROUTES, QueryService

from .conftest import build_golden_dataset

PAYLOADS = "/relay/v1/data/bidtraces/proposer_payload_delivered"
SUBMISSIONS = "/relay/v1/data/bidtraces/builder_blocks_received"
REGISTRATIONS = "/relay/v1/data/validators/registration"

#: A request sweep touching every paginated code path: full pages,
#: limits, relay filters, slot queries, hash lookups, pubkey lookups.
SWEEP = [
    (PAYLOADS, {}),
    (PAYLOADS, {"limit": "1"}),
    (PAYLOADS, {"limit": "2"}),
    (PAYLOADS, {"relay": "flashbots"}),
    (PAYLOADS, {"slot": "8001"}),
    (PAYLOADS, {"slot": "8001", "limit": "1"}),
    (PAYLOADS, {"slot": "12345"}),
    (PAYLOADS, {"block_hash": "0x" + "bb" * 32}),
    (SUBMISSIONS, {}),
    (SUBMISSIONS, {"relay": "flashbots", "slot": "8000"}),
    (SUBMISSIONS, {"limit": "3"}),
    (REGISTRATIONS, {}),
    (REGISTRATIONS, {"limit": "1"}),
    (REGISTRATIONS, {"pubkey": "0x" + "e1" * 48, "relay": "flashbots"}),
]


def _cursor_walk(service: QueryService, path: str, limit: int):
    """Every page of a cursor walk: (params, response) pairs."""
    pages = []
    params: dict[str, str] = {"limit": str(limit)}
    while True:
        response = service.handle(path, dict(params))
        pages.append((dict(params), response))
        cursor = response.headers.get("x-next-cursor")
        if cursor is None:
            return pages
        params["cursor"] = cursor


def _sweep_bodies(service: QueryService) -> list[tuple]:
    results = []
    for path, params in SWEEP:
        response = service.handle(path, dict(params))
        results.append((path, params, response.status, response.body,
                        dict(response.headers)))
    for limit in (1, 2):
        for params, response in _cursor_walk(service, PAYLOADS, limit):
            results.append((PAYLOADS, params, response.status, response.body,
                            dict(response.headers)))
    return results


def _views(dataset) -> list[tuple[dict[str, str], list]]:
    """Each relay's query parameters and stores, then the combined view's.

    The combined view concatenates the stores in relay-name order.
    """
    stores = [(name, dataset.relays[name].data) for name in sorted(dataset.relays)]
    views = [({"relay": name}, [store]) for name, store in stores]
    views.append(({}, [store for _, store in stores]))
    return views


def _index_order(rows, key: str = "slot") -> list:
    """``rows`` descending by attribute ``key``, store order within a slot."""
    ranked = sorted(enumerate(rows), key=lambda item: (-getattr(item[1], key), item[0]))
    return [row for _, row in ranked]


def _assert_pages_are_live_encodings(dataset, limits) -> None:
    """Every served page equals ``dump_json`` of its rows, encoded live.

    Walks every relay (and the combined view) on all three paginated
    endpoints: full cursor walks at each limit, and every exact slot.
    The expected rows come from the stores, in index order; the index
    says only where each page starts and ends.
    """
    service = QueryService(dataset)
    join = service.index.join
    endpoints = (
        (PAYLOADS, "payloads", "get_payloads_delivered", "slot",
         lambda row: encode_delivered(row, join)),
        (SUBMISSIONS, "submissions", "get_builder_blocks_received", "slot",
         lambda row: encode_submission(row, join)),
        (REGISTRATIONS, "registrations", "get_validator_registrations",
         "registered_slot", encode_registration),
    )
    for base, view in _views(dataset):
        indexes = service.index.for_relay(base.get("relay"))
        for path, name, getter, key, encode in endpoints:
            slot_index = getattr(indexes, name)
            ordered = _index_order(
                [row for store in view for row in getattr(store, getter)()], key
            )
            assert len(slot_index) == len(ordered)
            for limit in limits:
                params = {**base, "limit": str(limit)}
                cursor = None
                while True:
                    start, end, next_cursor = slot_index.page_span(cursor, limit)
                    response = service.handle(path, dict(params))
                    assert response.status == 200
                    assert response.body == dump_json(
                        [encode(row) for row in ordered[start:end]]
                    )
                    assert response.headers.get("x-next-cursor") == next_cursor
                    if next_cursor is None:
                        break
                    cursor = Cursor.parse(next_cursor)
                    params["cursor"] = next_cursor
            for slot in {getattr(row, key) for row in ordered}:
                response = service.handle(
                    path, {**base, "slot": str(slot), "limit": "500"}
                )
                assert response.body == dump_json(
                    [encode(row) for row in ordered if getattr(row, key) == slot]
                )


def _assert_lookups_are_live_encodings(dataset) -> int:
    """Every ``pubkey`` and ``block_hash`` answer equals its live encoding.

    The expected rows come from the stores, not the index: a view's
    registration for a pubkey is the last one in store order (relay-name
    order in the combined view), and a hash's bid traces are its rows in
    index order.  Returns how many of the combined view's registrations
    a later registration of the same pubkey overrides.
    """
    service = QueryService(dataset)
    join = service.index.join
    repeated = 0
    for base, view in _views(dataset):
        registrations = [r for store in view for r in store.get_validator_registrations()]
        latest = {r.validator_pubkey: r for r in registrations}
        if not base:
            repeated = len(registrations) - len(latest)
        for pubkey, registration in latest.items():
            response = service.handle(REGISTRATIONS, {**base, "pubkey": pubkey})
            assert response.status == 200
            assert response.body == dump_json(encode_registration(registration))
        bidtraces = (
            (PAYLOADS, "get_payloads_delivered", lambda row: encode_delivered(row, join)),
            (SUBMISSIONS, "get_builder_blocks_received",
             lambda row: encode_submission(row, join)),
        )
        for path, getter, encode in bidtraces:
            ordered = _index_order(
                [row for store in view for row in getattr(store, getter)()]
            )
            for block_hash in {row.block_hash for row in ordered}:
                response = service.handle(path, {**base, "block_hash": block_hash})
                assert response.status == 200
                assert response.body == dump_json(
                    [encode(row) for row in ordered if row.block_hash == block_hash]
                )
            absent = service.handle(path, {**base, "block_hash": "0x" + "00" * 32})
            assert (absent.status, absent.body) == (200, b"[]")
    return repeated


def test_cached_bytes_equal_uncached_on_golden_dataset():
    _assert_pages_are_live_encodings(build_golden_dataset(), limits=(1, 2, 500))


def test_lookups_equal_live_encodings_on_golden_dataset():
    # PROPOSER_2 is registered at aestus and flashbots.
    assert _assert_lookups_are_live_encodings(build_golden_dataset()) == 1


def test_lookups_equal_live_encodings_on_run_dataset(small_dataset):
    """The 12-day session world registers one validator at several relays."""
    assert _assert_lookups_are_live_encodings(small_dataset) >= 1


def test_wire_column_matches_dump_json():
    """`page_bytes` is literally `dump_json` of the encoded row list."""
    rows = [{"a": str(i), "b": "0x" + "ab" * 4} for i in range(7)]
    column = wire_column(rows, lambda row: row)
    assert len(column) == 7
    for lo in range(8):
        for hi in range(lo, 8):
            assert column.page_bytes(lo, hi) == dump_json(rows[lo:hi])


def test_empty_wire_column():
    column = WireColumn([])
    assert len(column) == 0
    assert column.page_bytes(0, 0) == b"[]"


def test_wire_column_memo_shares_fragments():
    row = {"x": "1"}
    memo: dict[int, bytes] = {}
    first = wire_column([row, row], lambda r: r, memo)
    second = wire_column([row], lambda r: r, memo)
    assert len(memo) == 1
    assert first.page_bytes(0, 2) == b'[{"x":"1"},{"x":"1"}]'
    assert second.page_bytes(0, 1) == b'[{"x":"1"}]'


@pytest.fixture(scope="module")
def run_datasets():
    """A run dataset, and the same dataset rebuilt from its observations."""
    from repro.datasets.collector import collect_study_dataset
    from repro.simulation.config import small_test_config
    from repro.simulation.world import build_world

    config = small_test_config(num_days=4, blocks_per_day=6)
    columnar = collect_study_dataset(build_world(config).run())
    assert len(columnar.table) > 0
    assert columnar.inventory.relay_data_entries > 0
    observations = columnar.table.to_observations()
    return {
        "columnar": columnar,
        "object": dataclasses.replace(
            columnar, table=BlockTable.from_observations(observations)
        ),
    }


@pytest.mark.parametrize("variant", ["columnar", "object"])
def test_cached_bytes_equal_uncached_on_real_backends(run_datasets, variant):
    _assert_pages_are_live_encodings(
        run_datasets[variant], limits=(7, 200, 500)
    )


def test_backends_serve_identical_page_bytes(run_datasets):
    columnar = QueryService(run_datasets["columnar"])
    object_backed = QueryService(run_datasets["object"])
    for path in (PAYLOADS, SUBMISSIONS, REGISTRATIONS):
        a = columnar.handle(path, {"limit": "500"})
        b = object_backed.handle(path, {"limit": "500"})
        assert a.status == b.status == 200
        assert a.body == b.body


@pytest.mark.skipif(not hasattr(os, "fork"), reason="requires os.fork")
def test_cached_bytes_survive_fork():
    """A forked worker sharing the parent's blobs serves the same bytes.

    This is exactly the multi-worker serving configuration: the service
    (indexes + wire columns) is built pre-fork and the child reads the
    copy-on-write pages.
    """
    service = QueryService(build_golden_dataset())

    def digest() -> bytes:
        state = hashlib.sha256()
        for path, params, status, body, headers in _sweep_bodies(service):
            state.update(repr((path, sorted(params.items()), status)).encode())
            state.update(body)
            state.update(repr(sorted(headers.items())).encode())
        return state.hexdigest().encode()

    parent_digest = digest()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        # Child: recompute over the CoW-shared service and report back.
        try:
            os.close(read_fd)
            os.write(write_fd, digest())
            os.close(write_fd)
        finally:
            os._exit(0)
    os.close(write_fd)
    chunks = []
    while True:
        chunk = os.read(read_fd, 4096)
        if not chunk:
            break
        chunks.append(chunk)
    os.close(read_fd)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert b"".join(chunks) == parent_digest


def test_response_lru_caches_hot_responses():
    """Only the five static routes are memoized; the rest render per request."""
    service = QueryService(build_golden_dataset())
    for route in STATIC_ROUTES:
        first = service.handle(route, {})
        assert first.status == 200
        # The query string is ignored and a trailing slash is the same route.
        assert service.handle(route, {"limit": "2"}) is first
        assert service.handle(route + "/", {}) is first
    pages = [service.handle(PAYLOADS, {"limit": "2"}) for _ in range(2)]
    cursor = pages[0].headers["x-next-cursor"]
    follows = [
        service.handle(PAYLOADS, {"limit": "2", "cursor": cursor}) for _ in range(2)
    ]
    errors = [service.handle(PAYLOADS, {"limit": "0"}) for _ in range(2)]
    for first, second in (pages, follows, errors):
        assert first is not second
        assert (first.status, first.body, first.headers) == (
            second.status, second.body, second.headers
        )
    assert errors[0].status == 400
    assert service.handle("/healthz", {}) is not service.handle("/healthz", {})


def test_healthz_reports_serving_pid():
    service = QueryService(build_golden_dataset())
    body = json.loads(service.handle("/healthz", {}).body)
    assert body["status"] == "ok"
    assert body["pid"] == os.getpid()
