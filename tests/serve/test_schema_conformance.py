"""Golden schema-conformance tests for the relay data endpoints.

Each pinned fixture under ``fixtures/`` is the canonicalized JSON a
Flashbots-compatible client must receive for one request against the
hand-built golden dataset — byte-for-byte, including field names,
casing, field order and string-encoded integers.  Any serving change
that alters the wire shape fails here first.

Regenerate after an *intentional* schema change with::

    PYTHONPATH=src:tests python tests/serve/test_schema_conformance.py regen

and review the fixture diff like any other code change.
"""

from __future__ import annotations

import json
import pathlib
import re

import pytest

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

PROPOSER_1 = "0x" + "e1" * 48

#: (fixture file, request path, query params) — the pinned surface.
CASES = [
    (
        "payloads_all.json",
        "/relay/v1/data/bidtraces/proposer_payload_delivered",
        {},
    ),
    (
        "payloads_flashbots.json",
        "/relay/v1/data/bidtraces/proposer_payload_delivered",
        {"relay": "flashbots"},
    ),
    (
        "payloads_page1_limit2.json",
        "/relay/v1/data/bidtraces/proposer_payload_delivered",
        {"limit": "2"},
    ),
    (
        "submissions_flashbots_slot8000.json",
        "/relay/v1/data/bidtraces/builder_blocks_received",
        {"relay": "flashbots", "slot": "8000"},
    ),
    (
        "submissions_by_block_hash.json",
        "/relay/v1/data/bidtraces/builder_blocks_received",
        {"block_hash": "0x" + "bb" * 32},
    ),
    (
        "registrations_all.json",
        "/relay/v1/data/validators/registration",
        {},
    ),
    (
        "registration_pubkey.json",
        "/relay/v1/data/validators/registration",
        {"pubkey": PROPOSER_1, "relay": "flashbots"},
    ),
    ("analysis_hhi.json", "/analysis/hhi", {}),
    ("analysis_value_split.json", "/analysis/value_split", {}),
    ("analysis_censorship.json", "/analysis/censorship", {}),
    ("relays.json", "/relays", {}),
    ("inventory.json", "/inventory", {}),
]

#: Spec field order for the two bidtrace row shapes (Flashbots relay API).
DELIVERED_FIELDS = [
    "slot",
    "parent_hash",
    "block_hash",
    "builder_pubkey",
    "proposer_pubkey",
    "proposer_fee_recipient",
    "gas_limit",
    "gas_used",
    "value",
    "num_tx",
    "block_number",
]
SUBMISSION_FIELDS = [
    "slot",
    "parent_hash",
    "block_hash",
    "builder_pubkey",
    "gas_limit",
    "gas_used",
    "value",
    "num_tx",
    "block_number",
    "timestamp",
    "timestamp_ms",
    "optimistic_submission",
]

_UINT = re.compile(r"^(0|[1-9][0-9]*)$")
_HEX = {
    "parent_hash": 64,
    "block_hash": 64,
    "builder_pubkey": 96,
    "proposer_pubkey": 96,
    "pubkey": 96,
    "proposer_fee_recipient": 40,
    "fee_recipient": 40,
}


def canon(body: bytes) -> str:
    """Canonical fixture text: pretty-printed, key order preserved."""
    return json.dumps(json.loads(body), indent=2) + "\n"


@pytest.mark.parametrize(("fixture", "path", "params"), CASES)
def test_pinned_fixture(golden_service, fixture, path, params):
    response = golden_service.handle(path, dict(params))
    assert response.status == 200
    expected = (FIXTURES / fixture).read_text()
    assert canon(response.body) == expected


def _bidtrace_rows(golden_service):
    for path, fields in (
        ("/relay/v1/data/bidtraces/proposer_payload_delivered", DELIVERED_FIELDS),
        ("/relay/v1/data/bidtraces/builder_blocks_received", SUBMISSION_FIELDS),
    ):
        for row in json.loads(golden_service.handle(path, {}).body):
            yield path, fields, row


def test_bidtrace_field_order_and_encoding(golden_service):
    """Spec order, string-encoded integers, lowercase 0x hex."""
    rows = 0
    for path, fields, row in _bidtrace_rows(golden_service):
        rows += 1
        assert list(row) == fields, path
        for name, value in row.items():
            if name == "optimistic_submission":
                assert isinstance(value, bool)
                continue
            assert isinstance(value, str), (path, name)
            if name in _HEX:
                assert re.fullmatch(
                    "0x[0-9a-f]{%d}" % _HEX[name], value
                ), (path, name, value)
            else:
                assert _UINT.fullmatch(value), (path, name, value)
    assert rows == 7  # 3 payloads + 4 submissions (3 flashbots + 1 aestus)


def test_registration_envelope(golden_service):
    response = golden_service.handle(
        "/relay/v1/data/validators/registration", {}
    )
    for entry in json.loads(response.body):
        assert list(entry) == ["message", "signature"]
        assert list(entry["message"]) == [
            "fee_recipient",
            "gas_limit",
            "timestamp",
            "pubkey",
        ]
        assert re.fullmatch("0x[0-9a-f]{192}", entry["signature"])
        assert _UINT.fullmatch(entry["message"]["gas_limit"])
        assert _UINT.fullmatch(entry["message"]["timestamp"])


def test_pagination_headers(golden_service):
    path = "/relay/v1/data/bidtraces/proposer_payload_delivered"
    first = golden_service.handle(path, {"limit": "2"})
    assert first.headers["x-total-count"] == "3"
    cursor = first.headers["x-next-cursor"]
    second = golden_service.handle(path, {"limit": "2", "cursor": cursor})
    assert second.status == 200
    assert "x-next-cursor" not in second.headers
    rows = json.loads(first.body) + json.loads(second.body)
    assert [r["slot"] for r in rows] == [
        "8001",
        "8001",
        "8000",
    ]


@pytest.mark.parametrize(
    ("params", "message"),
    [
        ({"limit": "0"}, "limit must be a positive integer"),
        ({"limit": "9999"}, "maximum limit is 500"),
        ({"slot": "8000", "cursor": "8000"}, "cannot specify both slot and cursor"),
        ({"cursor": "not-a-slot"}, "invalid cursor argument"),
        # Query integers are bare ASCII digits: no separators, signs,
        # spaces or non-ASCII digits.
        ({"limit": "1_0"}, "invalid limit argument"),
        ({"limit": "+2"}, "invalid limit argument"),
        ({"limit": " 2"}, "invalid limit argument"),
        ({"limit": "\u0662"}, "invalid limit argument"),
        ({"slot": "10_2"}, "invalid slot argument"),
        ({"cursor": "\u0661\u0660\u0663"}, "invalid cursor argument"),
        ({"cursor": "8000_\u0661"}, "invalid cursor argument"),
        # More digits than int() converts.
        ({"limit": "1" * 5000}, "invalid limit argument"),
    ],
)
def test_error_shape(golden_service, params, message):
    path = "/relay/v1/data/bidtraces/proposer_payload_delivered"
    response = golden_service.handle(path, params)
    assert response.status == 400
    assert json.loads(response.body) == {"code": 400, "message": message}


def test_unknown_path_is_404(golden_service):
    response = golden_service.handle("/relay/v1/data/nope", {})
    assert response.status == 404
    assert json.loads(response.body)["code"] == 404


def test_unknown_pubkey_is_400(golden_service):
    response = golden_service.handle(
        "/relay/v1/data/validators/registration",
        {"pubkey": "0x" + "99" * 48},
    )
    assert response.status == 400
    assert "no registration found" in json.loads(response.body)["message"]


def _regen() -> None:
    import conftest as serve_conftest  # noqa: PLC0415 - script mode only

    from repro.serve.service import QueryService

    service = QueryService(serve_conftest.build_golden_dataset())
    FIXTURES.mkdir(exist_ok=True)
    for fixture, path, params in CASES:
        response = service.handle(path, dict(params))
        assert response.status == 200, (path, params, response.status)
        (FIXTURES / fixture).write_text(canon(response.body))
        print(f"wrote {fixture}")


if __name__ == "__main__":
    import sys

    if sys.argv[1:] == ["regen"]:
        sys.path.insert(0, str(pathlib.Path(__file__).parent))
        _regen()
    else:
        sys.exit("usage: test_schema_conformance.py regen")
