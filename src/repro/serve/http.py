"""Stdlib-asyncio HTTP/1.1 front end for the query service.

One :class:`asyncio.Protocol` per connection, from ``loop.create_server``
(or the worker pool's pre-bound ``sock=``); GET and HEAD, keep-alive by
default, ``Content-Length`` framing.  No third-party web framework: the
container bakes in only the scientific stack, and what the service needs
(frame a request, split its target, dispatch, frame a response) fits in a
few pages.

Each connection keeps one receive buffer.  ``data_received`` appends to
it and answers every complete request in it, in order, with one
``transport.write`` each: no task per connection, no awaited reads, no
drain per request.  Between the transport's ``pause_writing`` and
``resume_writing`` the connection stops reading and answering, so a
client that pipelines requests and reads nothing bounds the server's
memory.  Lines end in ``\\r\\n`` or a bare ``\\n`` and hold at most
``_MAX_LINE`` bytes before the ``\\n``; EOF completes a buffered request,
as a line-by-line reader sees it.

Origin-form targets (``/path?query`` in printable ASCII, without a ``//``
prefix or a fragment) are split by hand, unquoting only the fields that
hold ``%`` or ``+``: ``urlsplit`` keeps a 128-entry memo that a crawl,
whose targets never repeat, misses every time.  Every other form
(absolute-form, ``//``, fragments, control characters, which ``urlsplit``
rewrites) takes ``urlsplit`` + ``parse_qs``, the reference the split is
tested against.  The response head for a ``(status, content-type)`` pair
is rendered once and cached.

Deadlines: a request whose header block is still incomplete
``_REQUEST_TIMEOUT_SECONDS`` after its first byte gets ``408`` and the
connection closes; a keep-alive connection with nothing buffered and
nothing being written closes silently after ``_IDLE_TIMEOUT_SECONDS``.
A connection with a response still being written is aborted once it
has made no progress (no bytes received, no ``resume_writing``) for
``_IDLE_TIMEOUT_SECONDS``, so a client that pipelines requests and
stops reading cannot hold its connection; ``close()`` would wait for
the buffered responses to flush.  One timer per server sweeps the
connections, every half of the shorter deadline; requests set no timer.

Graceful draining (:meth:`RelayHTTPServer.drain`): stop accepting, let
requests already begun finish (their responses say ``connection:
close``), close idle connections — the primitive the pre-fork worker
pool (:mod:`.workers`) builds SIGTERM handling on.
"""

from __future__ import annotations

import asyncio
import functools
import logging
import signal
import time
import urllib.parse

from .service import QueryService, Response

_log = logging.getLogger(__name__)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    414: "URI Too Long",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: Longest accepted request line / header line, and max header count —
#: enough for any real client, small enough to bound memory per
#: connection under load.
_MAX_LINE = 8192
_MAX_HEADERS = 64

#: A request whose header block is incomplete this long after its first
#: byte gets 408; a connection idle this long between requests closes,
#: and one whose response has not moved this long is aborted.  Both sit
#: far above a load generator's millisecond gaps.
_REQUEST_TIMEOUT_SECONDS = 10.0
_IDLE_TIMEOUT_SECONDS = 60.0

#: How long a graceful drain lets in-flight requests finish.
DRAIN_SECONDS = 5.0

#: Rendered head prefixes per (status, content-type): everything up to
#: and including ``content-length: `` — the per-response remainder is
#: just the length digits plus the connection/extra header lines.
_HEAD_PREFIXES: dict[tuple[int, str], bytes] = {}

_CONNECTION_KEEP_ALIVE = b"\r\nconnection: keep-alive"
_CONNECTION_CLOSE = b"\r\nconnection: close"
_HEAD_END = b"\r\n\r\n"
_BLANK_LINES = (b"\r\n", b"\n", b"")
#: What :meth:`_Connection._line` returns for a line over ``_MAX_LINE``.
_TOO_LONG = -1

_METHOD_NOT_ALLOWED = Response(
    status=405, body=b'{"code":405,"message":"only GET is served"}'
)
_BAD_TARGET = Response(
    status=400, body=b'{"code":400,"message":"malformed request target"}'
)
_INTERNAL_ERROR = Response(
    status=500, body=b'{"code":500,"message":"internal server error"}'
)


def _render(response: Response, keep_alive: bool, head_only: bool = False) -> bytes:
    key = (response.status, response.content_type)
    prefix = _HEAD_PREFIXES.get(key)
    if prefix is None:
        reason = _REASONS.get(response.status, "Unknown")
        prefix = (
            f"HTTP/1.1 {response.status} {reason}\r\n"
            f"content-type: {response.content_type}\r\n"
            "content-length: "
        ).encode("ascii")
        _HEAD_PREFIXES[key] = prefix
    parts = [
        prefix,
        str(len(response.body)).encode("ascii"),
        _CONNECTION_KEEP_ALIVE if keep_alive else _CONNECTION_CLOSE,
    ]
    for name, value in response.headers.items():
        parts.append(f"\r\n{name}: {value}".encode("ascii"))
    parts.append(_HEAD_END)
    if not head_only:
        parts.append(response.body)
    return b"".join(parts)


def _split_target(target: str) -> tuple[str, dict[str, str]]:
    """The path and the query params (last value per name) of a target.

    Equal to ``urlsplit`` + ``parse_qs(keep_blank_values=True)``, which
    the forms outside origin-form still take, and raises ``ValueError``
    where ``urlsplit`` does.
    """
    if (
        target.startswith("/")
        and not target.startswith("//")
        and "#" not in target
        and target.isprintable()
    ):
        path, _, query = target.partition("?")
        params = {}
        for field in query.split("&"):
            if field:
                name, _, value = field.partition("=")
                if "%" in name or "+" in name:
                    name = urllib.parse.unquote(name.replace("+", " "))
                if "%" in value or "+" in value:
                    value = urllib.parse.unquote(value.replace("+", " "))
                params[name] = value
        return path, params
    parts = urllib.parse.urlsplit(target)
    return parts.path, {
        name: values[-1]
        for name, values in urllib.parse.parse_qs(
            parts.query, keep_blank_values=True
        ).items()
    }


class _Connection(asyncio.Protocol):
    """One client connection: its receive buffer and its deadlines."""

    __slots__ = (
        "server",
        "transport",
        "buffer",
        "eof",
        "writing_paused",
        "request_started",
        "last_active",
    )

    def __init__(self, server: "RelayHTTPServer") -> None:
        self.server = server
        self.transport: asyncio.Transport | None = None
        self.buffer = bytearray()
        self.eof = False
        self.writing_paused = False
        #: When the first byte of the buffered, incomplete request came.
        self.request_started: float | None = None
        self.last_active = time.monotonic()

    # -- asyncio.Protocol ----------------------------------------------

    def connection_made(self, transport: asyncio.Transport) -> None:
        self.transport = transport
        self.server._connections.add(self)

    def connection_lost(self, exc: Exception | None) -> None:
        self.server._connections.discard(self)

    def data_received(self, data: bytes) -> None:
        self.last_active = time.monotonic()
        self.buffer += data
        self._answer()

    def eof_received(self) -> bool:
        self.eof = True
        self._answer()
        # Stay open until every buffered request is answered: _answer
        # closes the transport once it reaches the end of the stream.
        return True

    def pause_writing(self) -> None:
        self.writing_paused = True
        self.transport.pause_reading()

    def resume_writing(self) -> None:
        self.last_active = time.monotonic()
        self.writing_paused = False
        if not self.eof:
            self.transport.resume_reading()
        self._answer()

    # -- requests ------------------------------------------------------

    def _answer(self) -> None:
        """Answer every complete request in the buffer, in order."""
        buffer, transport = self.buffer, self.transport
        answered = 0
        while (
            (answered < len(buffer) or self.eof)
            and not self.writing_paused
            and not transport.is_closing()
        ):
            end = self._answer_one(answered)
            if end is None:
                break
            answered = end
        if answered:
            del buffer[:answered]
            self.request_started = None
        if buffer and self.request_started is None:
            self.request_started = time.monotonic()

    def _line(self, at: int) -> tuple[int, int] | int | None:
        """Frame the line starting at ``at``: ``(end, next)`` with ``end``
        where its line end starts, ``None`` while it is incomplete, or
        ``_TOO_LONG`` when it holds more than ``_MAX_LINE`` bytes."""
        buffer = self.buffer
        newline = buffer.find(b"\n", at)
        if newline < 0:
            if len(buffer) - at > _MAX_LINE:
                return _TOO_LONG
            # At EOF the unterminated rest is the last line, then b"".
            return (len(buffer), len(buffer)) if self.eof else None
        if newline - at > _MAX_LINE:
            return _TOO_LONG
        return newline, newline + 1

    def _answer_one(self, at: int) -> int | None:
        """Answer the request at ``buffer[at:]`` and return where the next
        one starts; ``None`` while it is incomplete or once the
        connection is closing."""
        buffer = self.buffer
        line = self._line(at)
        if line is None:
            return None
        if line == _TOO_LONG:
            # The rest of the request cannot be framed reliably.
            return self._reject(414, "request line too long")
        end, at_headers = line
        request_line = buffer[at:end]
        if not request_line.strip():
            self.transport.close()  # EOF, or a blank line for a request
            return None
        try:
            method, target, version = (
                request_line.decode("ascii").strip().split(" ", 2)
            )
        except (UnicodeDecodeError, ValueError):
            return self._reject(400, "malformed request line")

        at = at_headers
        connection = ""
        header_count = 0
        while True:
            line = self._line(at)
            if line is None:
                return None
            if line == _TOO_LONG:
                return self._reject(431, "header line too long")
            start, (end, at) = at, line
            if at - start <= 2 and buffer[start:at] in _BLANK_LINES:
                break
            header_count += 1
            if header_count > _MAX_HEADERS:
                # Serving on would misparse the unread headers as the
                # next request line, so answer and hang up.
                return self._reject(431, "too many header fields")
            name, _, value = buffer[start:end].decode("latin-1").partition(":")
            if name.strip().lower() == "connection":
                connection = value.strip()

        if method == "GET" or method == "HEAD":
            response = self._respond(method, target)
        else:
            response = _METHOD_NOT_ALLOWED
        keep_alive = (
            connection.lower() != "close"
            and version != "HTTP/1.0"
            and not self.server._draining
        )
        # HEAD: same head the GET would carry — including its
        # content-length (RFC 9110 §9.3.2) — just no body bytes.
        self.transport.write(_render(response, keep_alive, method == "HEAD"))
        if not keep_alive:
            self.transport.close()
        return at

    def _respond(self, method: str, target: str) -> Response:
        try:
            path, params = _split_target(target)
        except ValueError:
            return _BAD_TARGET
        try:
            return self.server.service.handle(path, params)
        except Exception:  # noqa: BLE001 - a handler bug must not kill the loop
            _log.exception("%s %s failed", method, target)
            return _INTERNAL_ERROR

    def _reject(self, status: int, message: str) -> None:
        """Answer a request that cannot be served, then close."""
        body = f'{{"code":{status},"message":"{message}"}}'.encode()
        self.transport.write(_render(Response(status=status, body=body), False))
        self.transport.close()

    # -- deadlines and draining ----------------------------------------

    def idle(self) -> bool:
        """Between requests: nothing buffered, nothing being written."""
        return not (
            self.buffer
            or self.writing_paused
            or self.transport.get_write_buffer_size()
        )

    def sweep(self, now: float) -> None:
        """Apply the request, idle and write deadlines at time ``now``."""
        transport = self.transport
        if transport.is_closing():
            return
        if self.writing_paused or transport.get_write_buffer_size():
            # A response is still being written: only progress counts.
            if now - self.last_active >= _IDLE_TIMEOUT_SECONDS:
                transport.abort()
        elif self.buffer:
            if now - self.request_started >= _REQUEST_TIMEOUT_SECONDS:
                self._reject(408, "request timeout")
        elif now - self.last_active >= _IDLE_TIMEOUT_SECONDS:
            transport.close()


class RelayHTTPServer:
    """The asyncio server wrapping one :class:`QueryService`."""

    def __init__(
        self,
        service: QueryService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        sock=None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._sock = sock
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[_Connection] = set()
        self._draining = False
        self._sweeper: asyncio.TimerHandle | None = None

    async def start(self) -> "RelayHTTPServer":
        loop = asyncio.get_running_loop()
        connection = functools.partial(_Connection, self)
        if self._sock is not None:
            self._server = await loop.create_server(connection, sock=self._sock)
        else:
            self._server = await loop.create_server(
                connection, self.host, self.port
            )
        # Resolve the ephemeral port (port=0) to the bound one.
        self.port = self._server.sockets[0].getsockname()[1]
        self._sweep()
        return self

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def close(self) -> None:
        """Stop listening and the deadline sweep; drop every connection."""
        if self._sweeper is not None:
            self._sweeper.cancel()
            self._sweeper = None
        for connection in list(self._connections):
            connection.transport.abort()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._until_closed(1.0)

    async def drain(self, timeout: float = DRAIN_SECONDS) -> None:
        """Graceful shutdown: finish in-flight requests, drop idle ones.

        Stops accepting new connections, closes connections parked
        between requests (idle keep-alive), and gives connections with a
        request begun or a response still being written up to
        ``timeout`` seconds to finish; their responses say ``connection:
        close``.  Anything still open after the timeout is aborted.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        for connection in list(self._connections):
            if connection.idle():
                connection.transport.close()
        await self._until_closed(timeout)
        for connection in list(self._connections):
            connection.transport.abort()
        await self._until_closed(1.0)

    async def _until_closed(self, timeout: float) -> None:
        """Wait up to ``timeout`` seconds for every connection to close."""
        deadline = time.monotonic() + timeout
        while self._connections and time.monotonic() < deadline:
            await asyncio.sleep(0.01)

    def _sweep(self) -> None:
        """Apply both deadlines to every connection, then schedule the
        next sweep."""
        now = time.monotonic()
        for connection in list(self._connections):
            connection.sweep(now)
        self._sweeper = asyncio.get_running_loop().call_later(
            min(_REQUEST_TIMEOUT_SECONDS, _IDLE_TIMEOUT_SECONDS) / 2, self._sweep
        )


async def run_server(
    dataset,
    host: str = "127.0.0.1",
    port: int = 8547,
    *,
    ready_message=None,
) -> None:
    """Build the service, bind, announce readiness, serve until stopped.

    SIGTERM triggers the same graceful drain the worker pool performs:
    in-flight requests complete (marked ``connection: close``), idle
    keep-alive connections are dropped, then the process exits cleanly.
    """
    server = RelayHTTPServer(QueryService(dataset), host=host, port=port)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    try:
        loop.add_signal_handler(signal.SIGTERM, stop.set)
    except (NotImplementedError, RuntimeError):
        pass  # non-main thread or platform without signal support
    if ready_message is not None:
        ready_message(server)
    try:
        await stop.wait()
    finally:
        await server.drain()
        await server.close()
