"""The relay-data request path is a lookup plus a slice.

The index build renders every relay row once (``schema.encode_*`` and
``dump_json`` into wire columns) and sorts the slots once (numpy).  After
that, a cursor walk, an exact-slot query and a ``pubkey`` or
``block_hash`` lookup only seek and slice.  This test builds a
``QueryService``, then swaps the encoders, ``dump_json`` and the numpy
module of every serve module for stand-ins that raise, and replays those
requests: each must answer the same 200 bytes as before the swap.  A
change that brings back per-request encoding or a numpy call on these
routes fails here.
"""

from __future__ import annotations

import sys

import pytest

from repro.serve.service import QueryService

PAYLOADS = "/relay/v1/data/bidtraces/proposer_payload_delivered"
SUBMISSIONS = "/relay/v1/data/bidtraces/builder_blocks_received"
REGISTRATIONS = "/relay/v1/data/validators/registration"


class _Forbidden:
    """Stands in for a module or function the request path must not use."""

    def __init__(self, name: str) -> None:
        self._name = name

    def __call__(self, *args, **kwargs):
        raise AssertionError(f"{self._name} called on the request path")

    def __getattr__(self, attribute: str):
        raise AssertionError(f"{self._name}.{attribute} used on the request path")


def _requests(service: QueryService) -> list[tuple[str, dict]]:
    """Cursor walks, exact slots and by-key lookups, per relay and combined."""
    requests = []
    views = [{}] + [{"relay": name} for name in service.index.relay_names()]
    for base in views:
        indexes = service.index.for_relay(base.get("relay"))
        for path in (PAYLOADS, SUBMISSIONS, REGISTRATIONS):
            params = {**base, "limit": "7"}
            while True:
                requests.append((path, dict(params)))
                cursor = service.handle(path, dict(params)).headers.get(
                    "x-next-cursor"
                )
                if cursor is None:
                    break
                params["cursor"] = cursor
        for path, slot_index in (
            (PAYLOADS, indexes.payloads),
            (SUBMISSIONS, indexes.submissions),
            (REGISTRATIONS, indexes.registrations),
        ):
            slots = {slot_index.slot_at(p) for p in range(len(slot_index))}
            requests += [(path, {**base, "slot": str(slot)}) for slot in slots]
        requests += [
            (REGISTRATIONS, {**base, "pubkey": pubkey})
            for pubkey in indexes.registration_by_pubkey
        ]
        requests += [
            (PAYLOADS, {**base, "block_hash": block_hash})
            for block_hash in indexes.payloads_by_hash
        ]
        requests += [
            (SUBMISSIONS, {**base, "block_hash": block_hash})
            for block_hash in indexes.submissions_by_hash
        ]
        requests.append((SUBMISSIONS, {**base, "block_hash": "0x" + "00" * 32}))
    return requests


def test_relay_data_requests_neither_encode_nor_call_numpy(
    small_dataset, monkeypatch
):
    service = QueryService(small_dataset)
    requests = _requests(service)
    before = [service.handle(path, dict(params)) for path, params in requests]
    assert all(response.status == 200 for response in before)
    kinds = {tuple(sorted(params)) for _, params in requests}
    assert {("pubkey",), ("block_hash",), ("slot",), ("cursor", "limit")} <= kinds

    # Every serve module's binding of each name, so a later ``from .schema
    # import dump_json`` is caught as well as a ``schema.dump_json`` call.
    forbidden = ("encode_delivered", "encode_submission", "encode_registration",
                 "dump_json", "np")
    patched = []
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro.serve."):
            continue
        for name in forbidden:
            if hasattr(module, name):
                monkeypatch.setattr(
                    module, name, _Forbidden(f"{module_name}.{name}")
                )
                patched.append(f"{module_name}.{name}")
    assert {"repro.serve.index.np", "repro.serve.schema.dump_json"} <= set(patched)

    for (path, params), expected in zip(requests, before):
        response = service.handle(path, dict(params))
        assert (response.status, response.body, response.headers) == (
            200,
            expected.body,
            expected.headers,
        ), (path, params)


def test_forbidden_stand_ins_raise():
    """The stand-ins fail loudly, so the replay above proves something."""
    with pytest.raises(AssertionError, match="on the request path"):
        _Forbidden("numpy").searchsorted
    with pytest.raises(AssertionError, match="on the request path"):
        _Forbidden("schema.dump_json")([])
