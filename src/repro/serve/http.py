"""Stdlib-asyncio HTTP/1.1 front end for the query service.

One coroutine per connection over ``asyncio.start_server``; GET-only,
keep-alive by default, ``Content-Length`` framing.  No third-party web
framework — the container bakes in only the scientific stack, and the
service's needs (parse a request line, dispatch, frame a response) fit in
a page of code that the load benchmark can push to thousands of
concurrent connections.

Hot-path notes: the response head for a given ``(status, content-type)``
pair is rendered once and cached (only the content-length digits and the
connection/extra headers vary per response), and targets without a query
string skip ``urlsplit``/``parse_qs`` entirely.

The server also supports graceful draining (:meth:`RelayHTTPServer.
drain`): stop accepting, let any request currently being processed
finish and be written out, close idle keep-alive connections — the
primitive the pre-fork worker pool (:mod:`.workers`) builds SIGTERM
handling on.
"""

from __future__ import annotations

import asyncio
import signal
import urllib.parse

from .service import QueryService, Response

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
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

#: How long a graceful drain lets in-flight requests finish.
DRAIN_SECONDS = 5.0

#: Rendered head prefixes per (status, content-type): everything up to
#: and including ``content-length: `` — the per-response remainder is
#: just the length digits plus the connection/extra header lines.
_HEAD_PREFIXES: dict[tuple[int, str], bytes] = {}

_CONNECTION_KEEP_ALIVE = b"\r\nconnection: keep-alive"
_CONNECTION_CLOSE = b"\r\nconnection: close"
_HEAD_END = b"\r\n\r\n"


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


class _ConnectionState:
    """Per-connection drain bookkeeping: is a request mid-flight?"""

    __slots__ = ("busy",)

    def __init__(self) -> None:
        self.busy = False


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
        self._connections: dict[asyncio.Task, _ConnectionState] = {}
        self._draining = False

    async def start(self) -> "RelayHTTPServer":
        if self._sock is not None:
            self._server = await asyncio.start_server(
                self._handle_connection, sock=self._sock, limit=_MAX_LINE
            )
        else:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port, limit=_MAX_LINE
            )
        # Resolve the ephemeral port (port=0) to the bound one.
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def drain(self, timeout: float = DRAIN_SECONDS) -> None:
        """Graceful shutdown: finish in-flight requests, drop idle ones.

        Stops accepting new connections, cancels connections parked
        between requests (idle keep-alive), and gives connections with a
        request mid-flight up to ``timeout`` seconds to write their
        response and exit (the per-request loop observes ``_draining``
        and closes after the response).  Anything still alive after the
        timeout is cancelled.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
        for task, state in list(self._connections.items()):
            if not state.busy:
                task.cancel()
        if self._connections:
            await asyncio.wait(set(self._connections), timeout=timeout)
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.wait(set(self._connections), timeout=1.0)

    # -- connection handling -------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        state = _ConnectionState()
        self._connections[task] = state
        try:
            while True:
                keep_alive = await self._handle_one(reader, writer, state)
                if not keep_alive or self._draining:
                    break
        except (
            asyncio.IncompleteReadError,
            asyncio.CancelledError,
            ConnectionError,
            TimeoutError,
        ):
            # CancelledError: drain() dropping an idle keep-alive
            # connection — the task is ending either way.
            pass
        finally:
            self._connections.pop(task, None)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # Loop shutdown cancels handlers parked on readline();
                # the task is ending anyway, so swallow the wakeup.
                pass

    async def _handle_one(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        state: _ConnectionState,
    ) -> bool:
        state.busy = False
        try:
            request_line = await reader.readline()
        except ValueError:
            # Longer than _MAX_LINE: the rest of the request cannot be
            # framed reliably, so answer and hang up.
            state.busy = True
            return await self._reject(writer, 414, "request line too long")
        state.busy = True
        if not request_line or not request_line.strip():
            return False
        try:
            method, target, version = (
                request_line.decode("ascii").strip().split(" ", 2)
            )
        except (UnicodeDecodeError, ValueError):
            return await self._reject(writer, 400, "malformed request line")

        headers: dict[str, str] = {}
        header_count = 0
        while True:
            try:
                line = await reader.readline()
            except ValueError:  # longer than _MAX_LINE, as above
                return await self._reject(writer, 431, "header line too long")
            if line in (b"\r\n", b"\n", b""):
                break
            header_count += 1
            if header_count > _MAX_HEADERS:
                # Closing without reading the rest of the header block
                # keeps the stream honest: continuing to serve would
                # misparse the unread headers as the next request line.
                return await self._reject(writer, 431, "too many header fields")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()

        wants_close = (
            headers.get("connection", "").lower() == "close"
            or version == "HTTP/1.0"
        )
        if method not in ("GET", "HEAD"):
            await self._write(
                writer,
                Response(
                    status=405,
                    body=b'{"code":405,"message":"only GET is served"}',
                ),
                not wants_close,
            )
            return not wants_close

        if "?" in target or "#" in target:
            parsed = urllib.parse.urlsplit(target)
            path = parsed.path
            params = {
                key: values[-1]
                for key, values in urllib.parse.parse_qs(
                    parsed.query, keep_blank_values=True
                ).items()
            }
        else:
            path = target
            params = {}
        try:
            response = self.service.handle(path, params)
        except Exception:  # noqa: BLE001 - a handler bug must not kill the loop
            response = Response(
                status=500,
                body=b'{"code":500,"message":"internal server error"}',
            )
        # HEAD: same head the GET would carry — including its
        # content-length (RFC 9110 §9.3.2) — just no body bytes.
        keep_alive = not wants_close and not self._draining
        await self._write(
            writer, response, keep_alive, head_only=method == "HEAD"
        )
        return keep_alive

    async def _write(
        self,
        writer: asyncio.StreamWriter,
        response: Response,
        keep_alive: bool,
        head_only: bool = False,
    ) -> None:
        writer.write(_render(response, keep_alive, head_only))
        await writer.drain()

    async def _reject(
        self, writer: asyncio.StreamWriter, status: int, message: str
    ) -> bool:
        """Answer a request that cannot be served, then close (``False``)."""
        body = f'{{"code":{status},"message":"{message}"}}'.encode()
        await self._write(writer, Response(status=status, body=body), False)
        return False


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
