"""Tests of the asyncio HTTP front end.

Raw-bytes clients (no HTTP library) against a live server on an
ephemeral port: keep-alive reuse, HEAD, method/path errors, query
parsing, pipelined sequential requests, concurrent connections, line
caps, EOF, backpressure and the read deadlines.  Without sockets, the
connection protocol is driven through a fake transport: a pipelined
stream cut anywhere must be answered byte for byte as its requests fed
one at a time, and the target split must equal ``urlsplit`` +
``parse_qs``.
"""

from __future__ import annotations

import asyncio
import functools
import json
import logging
import socket
import time
import urllib.parse
from types import SimpleNamespace

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.serve import http
from repro.serve.http import RelayHTTPServer
from repro.serve.service import QueryService, Response

from .conftest import build_golden_dataset

PAYLOADS_PATH = "/relay/v1/data/bidtraces/proposer_payload_delivered"


async def _read_response(reader: asyncio.StreamReader, head_only: bool = False):
    status_line = await reader.readline()
    _, status, _ = status_line.decode().split(" ", 2)
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    # HEAD responses advertise the GET's content-length but carry no body.
    body = b""
    if not head_only:
        body = await reader.readexactly(int(headers["content-length"]))
    return int(status), headers, body


async def _request(reader, writer, target: str, method: str = "GET"):
    writer.write(
        f"{method} {target} HTTP/1.1\r\nhost: test\r\n\r\n".encode()
    )
    await writer.drain()
    return await _read_response(reader, head_only=method == "HEAD")


def _with_server(scenario, service=None):
    async def runner():
        server = RelayHTTPServer(service or QueryService(build_golden_dataset()))
        await server.start()
        try:
            await scenario(server)
        finally:
            await server.close()

    asyncio.run(runner())


def test_keep_alive_serves_multiple_requests():
    async def scenario(server):
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        status, headers, body = await _request(reader, writer, PAYLOADS_PATH)
        assert status == 200
        assert headers["connection"] == "keep-alive"
        assert headers["content-type"] == "application/json"
        assert headers["x-total-count"] == "3"
        assert len(json.loads(body)) == 3
        # Same connection, different endpoint.
        status, _, body = await _request(reader, writer, "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        writer.close()
        await writer.wait_closed()

    _with_server(scenario)


def test_query_string_reaches_the_service():
    async def scenario(server):
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        status, _, body = await _request(
            reader, writer, f"{PAYLOADS_PATH}?relay=flashbots&limit=1"
        )
        assert status == 200
        rows = json.loads(body)
        assert len(rows) == 1
        assert rows[0]["slot"] == "8001"
        writer.close()
        await writer.wait_closed()

    _with_server(scenario)


def test_head_advertises_get_content_length_without_body():
    """RFC 9110 §9.3.2: HEAD's Content-Length is what GET would return."""

    async def scenario(server):
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        get_status, get_headers, get_body = await _request(
            reader, writer, PAYLOADS_PATH
        )
        assert get_status == 200
        status, headers, body = await _request(
            reader, writer, PAYLOADS_PATH, method="HEAD"
        )
        assert status == 200
        assert body == b""
        assert headers["content-length"] == str(len(get_body))
        assert int(headers["content-length"]) > 0
        assert headers["x-total-count"] == "3"
        # The connection stays framed: the next request still works.
        status, _, _ = await _request(reader, writer, "/healthz")
        assert status == 200
        writer.close()
        await writer.wait_closed()

    _with_server(scenario)


@pytest.mark.parametrize(
    ("method", "target", "expected"),
    [
        ("POST", PAYLOADS_PATH, 405),
        ("GET", "/nope", 404),
        ("GET", f"{PAYLOADS_PATH}?limit=banana", 400),
    ],
)
def test_error_statuses_over_the_wire(method, target, expected):
    async def scenario(server):
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        status, _, body = await _request(reader, writer, target, method=method)
        assert status == expected
        assert json.loads(body)["code"] == expected
        # The connection survives an application error.
        status, _, _ = await _request(reader, writer, "/healthz")
        assert status == 200
        writer.close()
        await writer.wait_closed()

    _with_server(scenario)


def test_connection_close_is_honored():
    async def scenario(server):
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(
            f"GET /healthz HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n".encode()
        )
        await writer.drain()
        status, headers, _ = await _read_response(reader)
        assert status == 200
        assert headers["connection"] == "close"
        assert await reader.read() == b""  # server closed its end
        writer.close()
        await writer.wait_closed()

    _with_server(scenario)


def test_fifty_concurrent_connections():
    async def scenario(server):
        async def one_client(i: int) -> int:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            status, _, body = await _request(
                reader, writer, f"{PAYLOADS_PATH}?limit={1 + i % 3}"
            )
            writer.close()
            await writer.wait_closed()
            assert status == 200
            return len(json.loads(body))

        sizes = await asyncio.gather(*(one_client(i) for i in range(50)))
        assert sorted(set(sizes)) == [1, 2, 3]

    _with_server(scenario)


def test_malformed_request_line_gets_400():
    async def scenario(server):
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(b"NONSENSE\r\n\r\n")
        await writer.drain()
        status, _, body = await _read_response(reader)
        assert status == 400
        assert json.loads(body)["code"] == 400
        writer.close()
        await writer.wait_closed()

    _with_server(scenario)


def test_header_overflow_gets_431_and_closes():
    """More header lines than the cap: 431, connection closed.

    Regression: the old loop stopped reading after the cap without
    consuming the rest of the header block, so the *next* readline saw a
    leftover header and misparsed it as a request line — a desynced
    stream returning 400s for valid requests.
    """

    async def scenario(server):
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        extra = "".join(f"x-h{i}: {i}\r\n" for i in range(80))
        writer.write(f"GET /healthz HTTP/1.1\r\n{extra}\r\n".encode())
        await writer.drain()
        status, headers, body = await _read_response(reader)
        assert status == 431
        assert json.loads(body)["code"] == 431
        assert headers["connection"] == "close"
        # No desync possible: the server hangs up instead of misreading
        # the unconsumed header tail as a new request.
        assert await reader.read() == b""
        writer.close()
        await writer.wait_closed()

    _with_server(scenario)


LONG_REQUEST_LINE = f"GET /{'a' * 9000} HTTP/1.1\r\nhost: t\r\n\r\n".encode()
LONG_HEADER_LINE = f"GET /healthz HTTP/1.1\r\nx-big: {'b' * 9000}\r\n\r\n".encode()


def _request_with_line(kind: str, length: int) -> bytes:
    """A request whose request line or one header line holds ``length``
    bytes before its ``\\n``, the ``\\r`` counted."""
    if kind == "request-line":
        path = "/" + "a" * (length - len("GET / HTTP/1.1\r"))
        return f"GET {path} HTTP/1.1\r\nhost: t\r\n\r\n".encode()
    value = "b" * (length - len("x-big: \r"))
    return f"GET /healthz HTTP/1.1\r\nx-big: {value}\r\n\r\n".encode()


@pytest.mark.parametrize(
    "request_bytes, expected",
    [
        (LONG_REQUEST_LINE, 414),
        (LONG_HEADER_LINE, 431),
        (_request_with_line("request-line", 8193), 414),
        (_request_with_line("header-line", 8193), 431),
    ],
    ids=["request-line", "header-line", "request-line-8193", "header-line-8193"],
)
def test_over_long_line_is_answered_then_closed(request_bytes, expected):
    """A line over the 8,192-byte cap gets a status, not a dropped
    connection: 414 for the request line, 431 for a header line."""

    async def scenario(server):
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(request_bytes)
        await writer.drain()
        status, headers, body = await _read_response(reader)
        assert status == expected
        assert json.loads(body)["code"] == expected
        assert headers["connection"] == "close"
        assert await reader.read() == b""
        writer.close()
        await writer.wait_closed()

    _with_server(scenario)


def test_next_connection_served_after_over_long_lines():
    async def scenario(server):
        for request_bytes in (LONG_REQUEST_LINE, LONG_HEADER_LINE):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(request_bytes)
            await writer.drain()
            await reader.read()
            writer.close()
            await writer.wait_closed()

        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        status, _, body = await _request(reader, writer, "/healthz")
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        writer.close()
        await writer.wait_closed()

    _with_server(scenario)


def test_exactly_max_headers_is_served():
    """The cap is a limit, not an off-by-one: 64 header lines still work."""

    async def scenario(server):
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        extra = "".join(f"x-h{i}: {i}\r\n" for i in range(64))
        writer.write(f"GET /healthz HTTP/1.1\r\n{extra}\r\n".encode())
        await writer.drain()
        status, _, body = await _read_response(reader)
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        writer.close()
        await writer.wait_closed()

    _with_server(scenario)


def test_drain_finishes_inflight_request_and_drops_idle():
    """`drain()` lets a mid-flight request complete, closes idle ones."""

    async def scenario(server):
        # Idle keep-alive connection: parked between requests.
        idle_reader, idle_writer = await asyncio.open_connection(
            "127.0.0.1", server.port
        )
        status, _, _ = await _request(idle_reader, idle_writer, "/healthz")
        assert status == 200

        # In-flight connection: request line sent, header block not yet
        # terminated — the server is mid-request when drain starts.
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(b"GET /healthz HTTP/1.1\r\nhost: t\r\n")
        await writer.drain()
        await asyncio.sleep(0.05)  # let the server read the partial request

        drain_task = asyncio.create_task(server.drain(timeout=5.0))
        await asyncio.sleep(0.05)
        # Finish the in-flight request while draining.
        writer.write(b"\r\n")
        await writer.drain()
        status, headers, body = await _read_response(reader)
        assert status == 200
        assert json.loads(body)["status"] == "ok"
        # The drained connection is closed after its response...
        assert headers["connection"] == "close"
        assert await reader.read() == b""
        # ...and the idle one was dropped without a response.
        assert await idle_reader.read() == b""
        await drain_task
        writer.close()
        idle_writer.close()

    _with_server(scenario)


# -- line caps, EOF, backpressure ------------------------------------------


@pytest.mark.parametrize(
    ("kind", "expected"), [("request-line", 404), ("header-line", 200)]
)
def test_line_at_the_cap_is_served(kind, expected):
    """8,192 bytes before the ``\\n``, the ``\\r`` counted, are served."""

    async def scenario(server):
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(_request_with_line(kind, 8192))
        await writer.drain()
        status, headers, _ = await _read_response(reader)
        assert status == expected
        assert headers["connection"] == "keep-alive"
        writer.close()
        await writer.wait_closed()

    _with_server(scenario)


@pytest.mark.parametrize(
    ("sent", "answers"),
    [
        (b"GET /healthz HTTP/1.1\r\nhost: t\r\n", 1),
        (b"GET /healthz HTTP/1.1\r\nhost: t", 1),
        (b"GET /healthz HTTP/1.1", 1),
        (b"GET /relays HTTP/1.1\r\n\r\nGET /healthz HTTP/1.1\n", 2),
    ],
    ids=["header-block-open", "header-line-open", "request-line-open", "pipelined"],
)
def test_eof_completes_a_buffered_request(sent, answers):
    """A client that half-closes mid-request still gets its answer."""

    async def scenario(server):
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        writer.write(sent)
        await writer.drain()
        writer.write_eof()
        for _ in range(answers):
            status, _, _ = await asyncio.wait_for(_read_response(reader), 5)
            assert status == 200
        assert await asyncio.wait_for(reader.read(), 5) == b""
        writer.close()
        await writer.wait_closed()

    _with_server(scenario)


@pytest.fixture
def short_deadlines(monkeypatch):
    """Request deadline 0.2 s, idle deadline 0.4 s (sweeps every 0.1 s)."""
    monkeypatch.setattr(http, "_REQUEST_TIMEOUT_SECONDS", 0.2)
    monkeypatch.setattr(http, "_IDLE_TIMEOUT_SECONDS", 0.4)


PAGES = 64
PAGE_BYTES = 64 * 1024


def _page(number: int) -> Response:
    return Response(status=200, body=b"%d" % number + b"." * (PAGE_BYTES - 8))


async def _pipeline_pages(server, client: socket.socket):
    """Pipeline ``PAGES`` page requests from ``client``, whose receive
    buffer is tiny, and return its connection once the server pauses."""
    loop = asyncio.get_running_loop()
    client.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
    client.setblocking(False)
    await loop.sock_connect(client, ("127.0.0.1", server.port))
    await loop.sock_sendall(
        client,
        b"".join(
            b"GET /page?n=%d HTTP/1.1\r\nhost: t\r\n\r\n" % n
            for n in range(PAGES)
        ),
    )
    for _ in range(500):
        if any(c.writing_paused for c in server._connections):
            break
        await asyncio.sleep(0.01)
    (connection,) = server._connections
    assert connection.writing_paused
    assert not connection.transport.is_reading()
    return connection


def test_client_that_reads_nothing_stops_the_server_reading(
    short_deadlines, monkeypatch
):
    """Pipelined pages past the high-water mark pause the connection:
    no more requests are answered, so server memory stays bounded, and
    a stall longer than the request deadline but shorter than the idle
    deadline (raised to 1 s here) sweeps nothing.  Once the client
    reads, every page arrives, in order."""
    monkeypatch.setattr(http, "_IDLE_TIMEOUT_SECONDS", 1.0)
    answered = []

    def handle(path, params):
        answered.append(int(params["n"]))
        return _page(int(params["n"]))

    async def scenario(server):
        loop = asyncio.get_running_loop()
        client = socket.socket()
        try:
            connection = await _pipeline_pages(server, client)
            stalled = len(answered)
            assert stalled < PAGES
            _, high = connection.transport.get_write_buffer_limits()
            response_bytes = len(http._render(_page(0), True))
            assert connection.transport.get_write_buffer_size() <= high + response_bytes

            await asyncio.sleep(0.5)
            assert len(answered) == stalled
            assert not connection.transport.is_closing()

            expected = b"".join(http._render(_page(n), True) for n in range(PAGES))
            received = bytearray()
            while len(received) < len(expected):
                chunk = await asyncio.wait_for(loop.sock_recv(client, 1 << 16), 5)
                assert chunk
                received += chunk
            assert received == expected
            assert answered == list(range(PAGES))
        finally:
            client.close()

    _with_server(scenario, SimpleNamespace(handle=handle))


def test_client_that_never_reads_is_aborted_after_the_idle_deadline(
    short_deadlines,
):
    """The write deadline: a connection whose pending response has not
    moved for the idle deadline is aborted, buffered responses and all,
    instead of holding its place until a drain."""

    async def scenario(server):
        client = socket.socket()
        try:
            connection = await _pipeline_pages(server, client)
            last_progress = connection.last_active
            for _ in range(500):
                if not server._connections:
                    break
                await asyncio.sleep(0.01)
            assert not server._connections
            assert connection.transport.is_closing()
            assert time.monotonic() - last_progress >= http._IDLE_TIMEOUT_SECONDS
        finally:
            client.close()

    _with_server(
        scenario,
        SimpleNamespace(handle=lambda path, params: _page(int(params["n"]))),
    )


# -- read deadlines --------------------------------------------------------


def test_incomplete_request_gets_408_then_close(short_deadlines):
    async def scenario(server):
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        sent = time.monotonic()
        writer.write(b"GET /healthz HTTP/1.1\r\nhost: t\r\n")
        await writer.drain()
        status, headers, body = await asyncio.wait_for(_read_response(reader), 5)
        assert time.monotonic() - sent >= 0.2
        assert status == 408
        assert json.loads(body) == {"code": 408, "message": "request timeout"}
        assert headers["connection"] == "close"
        assert await reader.read() == b""
        writer.close()
        await writer.wait_closed()

    _with_server(scenario)


def test_idle_keep_alive_connection_closes_silently(short_deadlines):
    async def scenario(server):
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        sent = time.monotonic()
        status, headers, _ = await _request(reader, writer, "/healthz")
        assert status == 200
        assert headers["connection"] == "keep-alive"
        assert await asyncio.wait_for(reader.read(), 5) == b""
        assert time.monotonic() - sent >= 0.4
        writer.close()
        await writer.wait_closed()

    _with_server(scenario)


def test_connection_in_use_is_never_swept(short_deadlines):
    """Requests split across pauses shorter than the request deadline,
    with idle gaps shorter than the idle deadline, for several of each."""

    async def scenario(server):
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        until = time.monotonic() + 1.5
        served = 0
        while time.monotonic() < until:
            writer.write(b"GET /healthz HTTP/1.1\r\n")
            await writer.drain()
            await asyncio.sleep(0.05)
            writer.write(b"host: t\r\n\r\n")
            await writer.drain()
            status, headers, _ = await asyncio.wait_for(_read_response(reader), 5)
            assert status == 200
            assert headers["connection"] == "keep-alive"
            served += 1
            await asyncio.sleep(0.1)
        assert served >= 5
        writer.close()
        await writer.wait_closed()

    _with_server(scenario)


# -- the protocol without sockets ------------------------------------------


class _FakeTransport:
    """Records what the protocol writes; never pushes back."""

    def __init__(self) -> None:
        self.written = bytearray()
        self.closed = False

    def write(self, data: bytes) -> None:
        self.written += data

    def close(self) -> None:
        self.closed = True

    def is_closing(self) -> bool:
        return self.closed

    def get_write_buffer_size(self) -> int:
        return 0


@functools.cache
def _golden_service() -> QueryService:
    return QueryService(build_golden_dataset())


def _feed(chunks, service=None) -> bytes:
    """Everything one connection writes while ``chunks`` arrive."""
    connection = http._Connection(RelayHTTPServer(service or _golden_service()))
    transport = _FakeTransport()
    connection.connection_made(transport)
    for chunk in chunks:
        connection.data_received(chunk)
    return bytes(transport.written)


GOLDEN_TARGETS = [
    PAYLOADS_PATH,
    f"{PAYLOADS_PATH}?relay=flashbots&limit=1",
    f"{PAYLOADS_PATH}?limit=2&cursor=8001",
    f"{PAYLOADS_PATH}?relay=aes%74us&limit=+1",
    f"{PAYLOADS_PATH}?limit=banana",
    "/relay/v1/data/bidtraces/builder_blocks_received?slot=8000",
    "/relay/v1/data/bidtraces/builder_blocks_received?relay=flashbots&&slot=8000",
    "/relay/v1/data/validators/registration?relay=flashbots",
    "/analysis/hhi",
    "/analysis/censorship",
    "/relays",
    "/inventory",
    "/healthz",
    "/nope",
]
EXTRA_HEADERS = [
    "host: t",
    "accept: */*",
    "user-agent: crawler/1.0",
    "x-request-id: 42",
    "Connection: keep-alive",
    "accept-encoding: identity",
]


@st.composite
def _requests(draw):
    method = draw(st.sampled_from(["GET", "HEAD"]))
    target = draw(st.sampled_from(GOLDEN_TARGETS))
    headers = draw(st.lists(st.sampled_from(EXTRA_HEADERS), max_size=5))
    end = draw(st.sampled_from(["\r\n", "\n"]))
    raw = end.join([f"{method} {target} HTTP/1.1", *headers, "", ""]).encode()
    return raw, method, target


@given(requests=st.lists(_requests(), min_size=1, max_size=8), data=st.data())
def test_stream_cut_anywhere_is_answered_as_its_requests_one_at_a_time(
    requests, data
):
    stream = b"".join(raw for raw, _, _ in requests)
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=12)))
    pieces = [stream[a:b] for a, b in zip([0, *cuts], [*cuts, len(stream)])]
    one_at_a_time = _feed([raw for raw, _, _ in requests])
    assert _feed([piece for piece in pieces if piece]) == one_at_a_time
    service = _golden_service()
    assert one_at_a_time == b"".join(
        http._render(service.handle(*http._split_target(target)), True, method == "HEAD")
        for _, method, target in requests
    )


TARGET_STARTS = [
    "/", "/relays", PAYLOADS_PATH, "//", "//host", "http://h", "HTTP://h:80/x",
    "", "*", "a", " /", "\t/", "\x00/",
]
TARGET_PIECES = [
    "a", "relay", "=", "&", "&&", "?", "#", "+", "/", ":", ";", "[", "]", "@",
    "%20", "%2B", "%26", "%3D", "%C3%A9", "%ff", "%", "%4", "%zz",
    " ", "\t", "\r", "\x00", "\x1f", "\x7f",
]
FIELD_TEXT = st.lists(
    st.sampled_from(["a", "relay", "+", "%20", "%2B", "%C3%A9", "%ff", "%", "%zz", ":"]),
    max_size=4,
).map("".join)
#: Origin-form queries: fields with and without ``=``, empty fields
#: (``&&``), escapes and ``+``, then maybe a fragment.
QUERY_TARGETS = st.builds(
    lambda path, fields, fragment: f"{path}?{'&'.join(fields)}{fragment}",
    st.sampled_from(["/", "/relays", PAYLOADS_PATH]),
    st.lists(
        st.one_of(FIELD_TEXT, st.tuples(FIELD_TEXT, FIELD_TEXT).map("=".join)),
        max_size=5,
    ),
    st.sampled_from(["", "", "", "#", "#x=1"]),
)
#: Any form: absolute, ``//``, fragments, tabs and other control bytes.
FREE_TARGETS = st.builds(
    lambda start, pieces: start + "".join(pieces),
    st.sampled_from(TARGET_STARTS),
    st.lists(st.sampled_from(TARGET_PIECES), max_size=12),
)


@given(st.one_of(QUERY_TARGETS, FREE_TARGETS))
@example("/a?x=1&&y&z=%C3%A9+b&x=2&w=c+d")
@example("/a?x=1#b")
@example("http://relay.example/healthz?limit=1")
@example("//host/a?x=1")
@example("/a\tb?x=1")
@example("/a?x=\x01")
@example("//[bad")
def test_target_split_matches_urlsplit_and_parse_qs(target):
    try:
        parts = urllib.parse.urlsplit(target)
    except ValueError:
        with pytest.raises(ValueError):
            http._split_target(target)
        return
    params = urllib.parse.parse_qs(parts.query, keep_blank_values=True)
    assert http._split_target(target) == (
        parts.path,
        {name: values[-1] for name, values in params.items()},
    )


def test_target_urlsplit_refuses_gets_400_and_the_connection_survives():
    written = _feed(
        [b"GET //[bad HTTP/1.1\r\n\r\nGET http://relay.example/healthz HTTP/1.1\r\n\r\n"]
    )
    first, _, second = written.partition(b"HTTP/1.1 200 OK")
    assert first == http._render(
        Response(status=400, body=b'{"code":400,"message":"malformed request target"}'),
        True,
    )
    assert b'"status":"ok"' in second


def test_handler_failure_logs_once_and_answers_the_same_500(caplog):
    def handle(path, params):
        raise RuntimeError("handler bug")

    target = f"{PAYLOADS_PATH}?limit=1"
    with caplog.at_level(logging.ERROR, logger="repro.serve.http"):
        written = _feed(
            [f"GET {target} HTTP/1.1\r\nhost: t\r\n\r\n".encode()],
            SimpleNamespace(handle=handle),
        )
    assert written == (
        b"HTTP/1.1 500 Internal Server Error\r\n"
        b"content-type: application/json\r\n"
        b"content-length: 46\r\n"
        b"connection: keep-alive\r\n\r\n"
        b'{"code":500,"message":"internal server error"}'
    )
    records = [r for r in caplog.records if r.name == "repro.serve.http"]
    assert len(records) == 1
    assert records[0].levelno == logging.ERROR
    assert f"GET {target}" in records[0].getMessage()
    assert records[0].exc_info[0] is RuntimeError
