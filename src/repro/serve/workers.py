"""Pre-forked multi-worker serving over ``SO_REUSEPORT``.

One Python process saturates one core; the dataset, its slot indexes and
the wire-encoding blobs are all immutable once built.  That combination
is exactly what the classic pre-fork model wants:

* the supervisor loads the dataset **once** (mmap-backed ``.npz``
  columns plus the interned index arrays and pre-rendered wire blobs),
  builds the :class:`~.service.QueryService`, and only then forks — so
  every worker shares those pages copy-on-write and startup cost is paid
  once, not N times;
* each worker binds its **own** listening socket to the same
  ``(host, port)`` with ``SO_REUSEPORT``, so the kernel load-balances
  incoming connections across workers with no userspace accept lock and
  no proxy hop;
* the supervisor restarts crashed workers with exponential backoff
  (reset once a worker proves stable), drains gracefully on
  SIGTERM/SIGINT, and announces ``READY <url> workers=<n>`` only after
  every worker's socket is accepting.

Response bytes are identical at any worker count: workers run the same
``QueryService`` object the single-process path serves.
"""

from __future__ import annotations

import asyncio
import logging
import os
import signal
import socket
import time

from .http import DRAIN_SECONDS, RelayHTTPServer
from .service import QueryService

_log = logging.getLogger(__name__)

#: A worker that lived at least this long gets its restart backoff reset.
STABLE_SECONDS = 5.0
#: First restart delay after a crash, doubled per crash up to the cap.
BACKOFF_BASE_SECONDS = 0.1
BACKOFF_CAP_SECONDS = 5.0


def _reuseport_socket(host: str, port: int) -> socket.socket:
    if not hasattr(socket, "SO_REUSEPORT"):
        raise RuntimeError(
            "pre-fork serving requires SO_REUSEPORT (Linux/BSD); "
            "run with --workers 1 on this platform"
        )
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
    sock.bind((host, port))
    return sock


class WorkerPool:
    """Supervisor for N forked serving workers sharing one port.

    ``serve_forever`` runs in the parent until SIGTERM/SIGINT (or
    :meth:`request_stop` from a signal-free context), supervising
    restarts; it must be called from the main thread of a process that
    has no running asyncio loop (workers each create their own loop
    after the fork).
    """

    def __init__(
        self,
        dataset,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if not hasattr(os, "fork"):
            raise RuntimeError("pre-fork serving requires os.fork (POSIX)")
        self.dataset = dataset
        self.host = host
        self.workers = workers
        # Build the service (indexes + wire blobs) BEFORE forking: the
        # expensive immutable state lands in pages every worker shares.
        self.service = QueryService(dataset)
        # The placeholder claims the port for the pool's lifetime.  It
        # never listens, so the kernel routes nothing to it; it resolves
        # port=0 to a concrete port and keeps non-REUSEPORT processes
        # from stealing the address between worker restarts.
        self._placeholder = _reuseport_socket(host, port)
        self.port = self._placeholder.getsockname()[1]
        self._children: dict[int, int] = {}  # pid -> slot
        self._spawn_times: dict[int, float] = {}  # pid -> monotonic spawn
        self._backoff: dict[int, float] = {}  # slot -> next restart delay
        self._restart_at: dict[int, float] = {}  # slot -> due time
        self._ready_pids: set[int] = set()
        self._ready_r: int | None = None
        self._ready_w: int | None = None
        self._death_r: int | None = None
        self._death_w: int | None = None
        self._stop = False
        self._announced = False
        self._ready_buf = b""

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def request_stop(self) -> None:
        self._stop = True

    # -- supervisor ----------------------------------------------------

    def serve_forever(self, announce=None) -> int:
        """Fork the workers, supervise until stopped; returns exit code.

        ``announce(url, workers)`` fires once, after every worker's
        listening socket is accepting connections.
        """
        self._ready_r, self._ready_w = os.pipe()
        os.set_blocking(self._ready_r, False)
        # Workers watch the death pipe's read end: when the supervisor
        # dies — even via SIGKILL, where no handler runs — the kernel
        # closes the last write end and every worker sees EOF and
        # drains.  No orphaned serving processes.
        self._death_r, self._death_w = os.pipe()
        previous = {
            signum: signal.signal(signum, lambda *_: self.request_stop())
            for signum in (signal.SIGTERM, signal.SIGINT)
        }
        try:
            for slot in range(self.workers):
                self._spawn(slot)
            while not self._stop:
                self._drain_ready_pipe()
                self._reap()
                self._restart_due()
                if (
                    not self._announced
                    and len(self._children) == self.workers
                    and self._ready_pids.issuperset(self._children)
                ):
                    self._announced = True
                    if announce is not None:
                        announce(self.url, self.workers)
                time.sleep(0.05)
            return 0
        finally:
            self._shutdown()
            for signum, handler in previous.items():
                signal.signal(signum, handler)

    def _spawn(self, slot: int) -> None:
        pid = os.fork()
        if pid == 0:
            # Child: never return into the supervisor's stack.
            status = 1
            try:
                status = self._worker_main()
            except BaseException:  # noqa: BLE001
                _log.exception("worker %d crashed", os.getpid())
            finally:
                os._exit(status)
        self._children[pid] = slot
        self._spawn_times[pid] = time.monotonic()

    def _drain_ready_pipe(self) -> None:
        try:
            while True:
                chunk = os.read(self._ready_r, 4096)
                if not chunk:
                    break
                self._ready_buf += chunk
        except BlockingIOError:
            pass
        # Parse only newline-terminated tokens: a read boundary must not
        # truncate a pid into a different (wrong) pid.
        *lines, self._ready_buf = self._ready_buf.split(b"\n")
        for line in lines:
            if line.strip():
                self._ready_pids.add(int(line))

    def _reap(self) -> None:
        while self._children:
            try:
                pid, _status = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if pid == 0:
                break
            slot = self._children.pop(pid, None)
            self._ready_pids.discard(pid)
            spawned = self._spawn_times.pop(pid, 0.0)
            if slot is None or self._stop:
                continue
            lived = time.monotonic() - spawned
            if lived >= STABLE_SECONDS:
                self._backoff.pop(slot, None)
            delay = self._backoff.get(slot, BACKOFF_BASE_SECONDS)
            self._backoff[slot] = min(delay * 2, BACKOFF_CAP_SECONDS)
            self._restart_at[slot] = time.monotonic() + delay
            _log.warning(
                "worker %d (slot %d) died after %.1fs; restarting in %.1fs",
                pid, slot, lived, delay,
            )

    def _restart_due(self) -> None:
        now = time.monotonic()
        for slot, due in list(self._restart_at.items()):
            if due <= now:
                del self._restart_at[slot]
                self._spawn(slot)

    def _shutdown(self) -> None:
        deadline = time.monotonic() + DRAIN_SECONDS + 2.0
        for pid in self._children:
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        while self._children and time.monotonic() < deadline:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                self._children.clear()
                break
            if pid:
                self._children.pop(pid, None)
            else:
                time.sleep(0.05)
        for pid in list(self._children):
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass
            self._children.pop(pid, None)
        for fd in (self._ready_r, self._ready_w, self._death_r, self._death_w):
            if fd is not None:
                try:
                    os.close(fd)
                except OSError:
                    pass
        self._placeholder.close()

    # -- worker --------------------------------------------------------

    def _worker_main(self) -> int:
        # The supervisor handles Ctrl-C for the whole foreground group;
        # workers only ever act on SIGTERM (from it, or an operator).
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        os.close(self._ready_r)
        os.close(self._death_w)
        self._placeholder.close()
        sock = _reuseport_socket(self.host, self.port)
        asyncio.run(self._worker_serve(sock))
        return 0

    async def _worker_serve(self, sock: socket.socket) -> None:
        server = RelayHTTPServer(self.service, self.host, self.port, sock=sock)
        await server.start()
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        loop.add_signal_handler(signal.SIGTERM, stop.set)
        # Supervisor death (EOF on the death pipe) also stops the worker.
        loop.add_reader(self._death_r, stop.set)
        os.write(self._ready_w, b"%d\n" % os.getpid())
        try:
            await stop.wait()
        finally:
            loop.remove_reader(self._death_r)
            await server.drain()
            await server.close()


def serve_pool(
    dataset,
    host: str = "127.0.0.1",
    port: int = 0,
    workers: int = 2,
    *,
    announce=None,
) -> int:
    """Convenience wrapper: build the pool and serve until signalled."""
    pool = WorkerPool(dataset, host=host, port=port, workers=workers)
    return pool.serve_forever(announce=announce)
