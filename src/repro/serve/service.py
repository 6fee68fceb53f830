"""Transport-independent request handling for the query service.

:class:`QueryService` maps a ``(path, query params)`` pair to a
:class:`Response` — no sockets involved, which is what lets the
conformance and pagination suites drive the exact serving code path
in-process while the asyncio front end (:mod:`.http`) stays a thin shell.

Endpoints
---------

Relay data (Flashbots data-API compatible, bare JSON arrays)::

    /relay/v1/data/bidtraces/proposer_payload_delivered
    /relay/v1/data/bidtraces/builder_blocks_received
    /relay/v1/data/validators/registration

Analysis (vectorized over the columnar block table)::

    /analysis/hhi          daily relay + builder market HHI (Fig. 6)
    /analysis/value_split  daily user-payment decomposition (Fig. 3)
    /analysis/censorship   compliant-relay + sanctioned shares (Figs. 17/18)

Service metadata: ``/healthz``, ``/relays``, ``/inventory``.

The three analysis routes, ``/relays`` and ``/inventory`` ignore the
query string and the dataset never changes, so each renders once and its
finished :class:`Response` is reused; ``/healthz`` stays live because it
reports the serving pid.  A relay-data request is a lookup plus a slice:
a ``bisect`` seek or a ``pubkey``/``block_hash`` dict lookup in the
index, then the bytes of those rows as the index build rendered them
(:class:`~.schema.WireColumn`).  No relay-data response is kept, because
a crawl of the relay data API, like the paper's, never repeats a key.

Pagination contract
-------------------

Bid-trace endpoints return rows slot-descending (ties in relay-record
order), at most ``limit`` per page (default 200, max 500).  ``cursor``
resumes from a slot: a bare ``<slot>`` matches the real relay API;
``<slot>_<skip>`` additionally skips rows already served inside that
slot, which makes page boundaries exact even when many rows share a
slot.  The follow-up cursor rides in the ``x-next-cursor`` response
header — the body stays a spec-shaped bare array, so the paper's own
collection code could scrape it unchanged.  ``slot`` and ``cursor`` are
mutually exclusive, as on the real relays.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

from .index import (
    ALL_RELAYS,
    Cursor,
    DatasetIndex,
    RelayIndexes,
    parse_decimal,
)
from . import schema

DEFAULT_LIMIT = 200
MAX_LIMIT = 500

#: Routes whose response ignores the query string, memoized on first 200.
STATIC_ROUTES = frozenset(
    {"/analysis/hhi", "/analysis/value_split", "/analysis/censorship",
     "/relays", "/inventory"}
)

_JSON = "application/json"


class ServeError(Exception):
    """An error response: HTTP status plus the relay-style message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Response:
    """One finished response, transport-agnostic."""

    status: int
    body: bytes
    content_type: str = _JSON
    headers: dict[str, str] = field(default_factory=dict)


def _error_response(status: int, message: str) -> Response:
    # The relay error shape: {"code": ..., "message": ...}.
    return Response(
        status=status,
        body=schema.dump_json({"code": status, "message": message}),
    )


def _ok(payload) -> Response:
    return Response(status=200, body=schema.dump_json(payload))


def _rows(wire, positions) -> Response:
    """A JSON array of the rows at index ``positions``, from their fragments."""
    return Response(
        status=200,
        body=b"[%s]" % b",".join([wire.row_bytes(p) for p in positions]),
    )


def _parse_int(params: dict[str, str], name: str) -> int | None:
    text = params.get(name)
    if text is None:
        return None
    try:
        return parse_decimal(text)
    except ValueError:
        raise ServeError(400, f"invalid {name} argument") from None


class QueryService:
    """The query layer over one collected
    :class:`~repro.datasets.collector.StudyDataset`."""

    def __init__(self, dataset) -> None:
        self.dataset = dataset
        self.index = DatasetIndex.from_dataset(dataset)
        self._static: dict[str, Response] = {}
        self._routes = {
            "/relay/v1/data/bidtraces/proposer_payload_delivered": (
                self._payload_delivered
            ),
            "/relay/v1/data/bidtraces/builder_blocks_received": (
                self._builder_blocks_received
            ),
            "/relay/v1/data/validators/registration": self._registrations,
            "/analysis/hhi": self._analysis_hhi,
            "/analysis/value_split": self._analysis_value_split,
            "/analysis/censorship": self._analysis_censorship,
            "/healthz": self._healthz,
            "/relays": self._relays,
            "/inventory": self._inventory,
        }

    # -- dispatch -------------------------------------------------------

    def handle(self, path: str, params: dict[str, str]) -> Response:
        route = path.rstrip("/") or "/"
        response = self._static.get(route)
        if response is not None:
            return response
        handler = self._routes.get(route)
        if handler is None:
            return _error_response(404, f"no such endpoint: {path}")
        try:
            response = handler(params)
        except ServeError as error:
            return _error_response(error.status, error.message)
        if route in STATIC_ROUTES:
            self._static[route] = response
        return response

    # -- shared request plumbing ---------------------------------------

    def _relay_indexes(self, params: dict[str, str]) -> RelayIndexes:
        name = params.get("relay")
        indexes = self.index.for_relay(name)
        if indexes is None:
            known = ", ".join(self.index.relay_names()) or "(none)"
            raise ServeError(404, f"unknown relay {name!r}; serving: {known}")
        return indexes

    def _limit(self, params: dict[str, str]) -> int:
        limit = _parse_int(params, "limit")
        if limit is None:
            return DEFAULT_LIMIT
        if limit == 0:
            raise ServeError(400, "limit must be a positive integer")
        if limit > MAX_LIMIT:
            raise ServeError(400, f"maximum limit is {MAX_LIMIT}")
        return limit

    def _paged(self, slot_index, wire, params: dict[str, str]) -> Response:
        """One page: a slice of the wire column built at index time."""
        slot = _parse_int(params, "slot")
        cursor_text = params.get("cursor")
        if slot is not None and cursor_text is not None:
            raise ServeError(400, "cannot specify both slot and cursor")
        limit = self._limit(params)
        if slot is not None:
            lo, hi = slot_index.slot_span(slot)
            hi = min(hi, lo + limit)
            return Response(status=200, body=wire.page_bytes(lo, hi))
        cursor = None
        if cursor_text is not None:
            try:
                cursor = Cursor.parse(cursor_text)
            except ValueError:
                raise ServeError(400, "invalid cursor argument") from None
        start, end, next_cursor = slot_index.page_span(cursor, limit)
        headers = {"x-total-count": str(len(slot_index))}
        if next_cursor is not None:
            headers["x-next-cursor"] = next_cursor
        return Response(
            status=200, body=wire.page_bytes(start, end), headers=headers
        )

    # -- relay data endpoints ------------------------------------------

    def _payload_delivered(self, params: dict[str, str]) -> Response:
        indexes = self._relay_indexes(params)
        block_hash = params.get("block_hash")
        if block_hash is not None:
            return _rows(
                indexes.payloads_wire, indexes.payloads_by_hash.get(block_hash, ())
            )
        return self._paged(indexes.payloads, indexes.payloads_wire, params)

    def _builder_blocks_received(self, params: dict[str, str]) -> Response:
        indexes = self._relay_indexes(params)
        block_hash = params.get("block_hash")
        if block_hash is not None:
            return _rows(
                indexes.submissions_wire,
                indexes.submissions_by_hash.get(block_hash, ()),
            )
        return self._paged(indexes.submissions, indexes.submissions_wire, params)

    def _registrations(self, params: dict[str, str]) -> Response:
        indexes = self._relay_indexes(params)
        pubkey = params.get("pubkey")
        if pubkey is not None:
            position = indexes.registration_by_pubkey.get(pubkey)
            if position is None:
                # The real relays answer unknown pubkeys with 400.
                raise ServeError(400, "no registration found for validator")
            return Response(
                status=200, body=indexes.registrations_wire.row_bytes(position)
            )
        return self._paged(
            indexes.registrations, indexes.registrations_wire, params
        )

    # -- analysis endpoints --------------------------------------------

    def _analysis_hhi(self, params: dict[str, str]) -> Response:
        from ..analysis.builders import daily_builder_shares
        from ..analysis.concentration import daily_hhi_series
        from ..analysis.relays import daily_relay_shares

        relay = daily_hhi_series("relay HHI", daily_relay_shares(self.dataset))
        builder = daily_hhi_series("builder HHI", daily_builder_shares(self.dataset))
        return _ok(
            {
                "relay": schema.encode_series(relay),
                "builder": schema.encode_series(builder),
            }
        )

    def _analysis_value_split(self, params: dict[str, str]) -> Response:
        from ..analysis.rewards import daily_user_payment_shares

        base, priority, direct = daily_user_payment_shares(self.dataset)
        return _ok(
            {
                "base_fee": schema.encode_series(base),
                "priority_fee": schema.encode_series(priority),
                "direct_transfer": schema.encode_series(direct),
            }
        )

    def _analysis_censorship(self, params: dict[str, str]) -> Response:
        from ..analysis.censorship import (
            daily_compliant_relay_share,
            daily_sanctioned_share,
            overall_sanctioned_shares,
        )

        pbs, non_pbs = daily_sanctioned_share(self.dataset)
        return _ok(
            {
                "compliant_relay_share": schema.encode_series(
                    daily_compliant_relay_share(self.dataset)
                ),
                "sanctioned_share": {
                    "pbs": schema.encode_series(pbs),
                    "non_pbs": schema.encode_series(non_pbs),
                },
                "overall": overall_sanctioned_shares(self.dataset),
            }
        )

    # -- metadata -------------------------------------------------------

    def _healthz(self, params: dict[str, str]) -> Response:
        combined = self.index.relays[ALL_RELAYS]
        return _ok(
            {
                "status": "ok",
                # The serving process — in multi-worker mode this is the
                # worker the kernel routed the connection to, which is
                # how the pool tests observe accept load-balancing.
                "pid": os.getpid(),
                "relays": len(self.index.relay_names()),
                "payloads": len(combined.payloads),
                "submissions": len(combined.submissions),
                "registrations": len(combined.registrations),
            }
        )

    def _relays(self, params: dict[str, str]) -> Response:
        rows = []
        for name in self.index.relay_names():
            indexes = self.index.relays[name]
            relay = self.dataset.relays[name]
            rows.append(
                {
                    "name": name,
                    "endpoint": relay.endpoint,
                    "payloads": len(indexes.payloads),
                    "submissions": len(indexes.submissions),
                    "registrations": len(indexes.registrations),
                }
            )
        return _ok(rows)

    def _inventory(self, params: dict[str, str]) -> Response:
        return _ok(asdict(self.dataset.inventory))
