"""Socket-level tests of the asyncio HTTP front end.

Raw-bytes clients (no HTTP library) against a live server on an
ephemeral port: keep-alive reuse, HEAD, method/path errors, query
parsing, pipelined sequential requests, and concurrent connections.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve import QueryService, RelayHTTPServer

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


def _with_server(scenario):
    async def runner():
        server = RelayHTTPServer(QueryService(build_golden_dataset()))
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


@pytest.mark.parametrize(
    "request_bytes, expected",
    [(LONG_REQUEST_LINE, 414), (LONG_HEADER_LINE, 431)],
    ids=["request-line", "header-line"],
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
