"""HTTP load generator for the relay data API: one process, raw sockets.

Reads a plan (JSON) on stdin, drives the server in three phases and
writes one result object (JSON) to stdout.  Every connection is
keep-alive and carries one request at a time, as a crawler's does.

* ``check``: every target once, in order, over one connection.  Each
  (target, status, body) goes into the response digest, which must equal
  the digest of the same sequence answered in-process.
* ``closed``: the targets, cycled, over every connection; a connection's
  next request goes out when its response is in.  The loop runs in
  windows; between two windows the connections are idle and this process
  times the host-speed reference (``hostspeed.py``) on the server's CPU.
* ``open``: the targets at a fixed offered rate.  A request due while
  every connection is busy waits here for the first free one; its latency
  is timed from its due time, so a stall also charges the requests queued
  behind it.  The generator's own lateness is how long after the later of
  its due time and a connection becoming free it was sent.

Pacing waits in ``select.select`` on the connection sockets (microsecond
timeouts), so responses are read as soon as they arrive and sends are not
rounded up to a millisecond.  Responses are framed by ``content-length``
and parsed only as far as the status code.  The CPU time of this process
and of the server is read from ``/proc/<pid>/stat`` around each timed
phase.

Run: ``python3 perfbench/loadgen.py < plan.json > result.json``.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import os
import select
import socket
import sys
import time
import urllib.parse
from collections import deque

from hostspeed import HostSpeed

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_HEAD_END = b"\r\n\r\n"
_LENGTH = b"content-length: "
_SPIN_S = 150e-6  # the open loop polls instead of sleeping this close to a send
_PR_SET_TIMERSLACK = 29


def tighten_timer_slack() -> None:
    """Ask the kernel to wake this process on time (default slack: 50 us)."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_TIMERSLACK, ctypes.c_ulong(1), 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: keep the default slack


def cpu_seconds(pid: int) -> float:
    """User plus system CPU seconds of ``pid`` (``/proc/<pid>/stat``)."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


class Connection:
    """One keep-alive connection with its receive buffer."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buffer = bytearray()
        self.in_flight = None  # open loop: (due time, request index)
        self.free_since = 0.0

    def fill(self) -> None:
        data = self.sock.recv(1 << 20)
        if not data:
            raise ConnectionError("server closed the connection")
        self.buffer += data

    def take(self, keep: bool = False):
        """Consume one complete response, or return None.

        Returns the status code, or ``(status, body)`` with ``keep``.
        """
        buffer = self.buffer
        end = buffer.find(_HEAD_END)
        if end < 0:
            return None
        at = buffer.find(_LENGTH, 0, end)
        if at < 0:
            raise ConnectionError("response without content-length")
        at += len(_LENGTH)
        line_end = buffer.find(b"\r", at, end + 1)
        total = end + 4 + int(buffer[at:line_end])
        if len(buffer) < total:
            return None
        status = int(buffer[9:12])
        if keep:
            status = (status, bytes(buffer[end + 4:total]))
        del buffer[:total]
        return status


def request_bytes(target: str) -> bytes:
    return f"GET {target} HTTP/1.1\r\nhost: bench\r\n\r\n".encode("ascii")


def check_phase(conn: Connection, targets: list) -> dict:
    """Every target once, in order; the digest of what came back."""
    digest = hashlib.sha256()
    statuses = []
    for target in targets:
        conn.sock.sendall(request_bytes(target))
        while (response := conn.take(keep=True)) is None:
            conn.fill()
        status, body = response
        digest.update(f"{target}\n{status}\n{len(body)}\n".encode())
        digest.update(body)
        statuses.append(status)
    return {"digest": digest.hexdigest(), "statuses": statuses}


def closed_phase(conns: list, requests: list, plan: dict) -> dict:
    """Saturating closed loop in windows, the reference timed before each.

    In a window each connection's next request goes out as soon as its
    response is in; the window ends once every connection is idle.
    """
    by_sock = {conn.sock: conn for conn in conns}
    socks = list(by_sock)
    cpu, server_cpu, server_pid = plan["cpu"], plan["server_cpu"], plan["server_pid"]
    window_s, window_completed, reference_s = [], [], []
    sent = completed = failed = 0
    cpu_gen = cpu_srv = 0.0
    for _ in range(max(round(plan["closed_s"] / plan["window_s"]), 1)):
        if server_cpu is not None:
            os.sched_setaffinity(0, {server_cpu})
        speed = HostSpeed()
        speed.sample(plan["window_samples"], warmup=1)
        reference_s.append(speed.samples)
        if cpu is not None:
            os.sched_setaffinity(0, {cpu})
        gen0, srv0 = cpu_seconds(os.getpid()), cpu_seconds(server_pid)
        before = completed
        start = time.perf_counter()
        stop = start + plan["window_s"]
        for conn in conns:
            conn.sock.sendall(requests[sent % len(requests)])
            sent += 1
        outstanding = len(conns)
        while outstanding:
            readable, _, _ = select.select(socks, [], [], 5.0)
            if not readable:
                raise TimeoutError("closed loop: no response within 5 s")
            for sock in readable:
                conn = by_sock[sock]
                conn.fill()
                while (status := conn.take()) is not None:
                    completed += 1
                    failed += status != 200
                    outstanding -= 1
                    if time.perf_counter() < stop:
                        sock.sendall(requests[sent % len(requests)])
                        sent += 1
                        outstanding += 1
        window_s.append(time.perf_counter() - start)
        window_completed.append(completed - before)
        cpu_gen += cpu_seconds(os.getpid()) - gen0
        cpu_srv += cpu_seconds(server_pid) - srv0
    return {
        "completed": completed,
        "failed": failed,
        "elapsed_s": sum(window_s),
        "window_s": window_s,
        "window_completed": window_completed,
        "reference_s": reference_s,
        "generator_cpu_s": cpu_gen,
        "server_cpu_s": cpu_srv,
    }


def open_phase(
    conns: list, requests: list, rate: float, seconds: float, server_pid: int
) -> dict:
    """Fixed offered rate; latency from each request's due time."""
    by_sock = {conn.sock: conn for conn in conns}
    socks = list(by_sock)
    idle = deque(conns)
    total = round(rate * seconds)
    interval = 1.0 / rate
    latency_ms: list[float] = []
    latency_index: list[int] = []  # which request (in due order) each latency is
    late_ms: list[float] = []
    failed = index = received = 0
    cpu_gen, cpu_srv = cpu_seconds(os.getpid()), cpu_seconds(server_pid)
    start = time.perf_counter() + 0.01
    for conn in conns:
        conn.free_since = start
    deadline = start + seconds + 5.0
    while received < total:
        now = time.perf_counter()
        while idle and index < total and start + index * interval <= now:
            due = start + index * interval
            conn = idle.popleft()
            conn.sock.sendall(requests[index % len(requests)])
            conn.in_flight = (due, index)
            now = time.perf_counter()
            late_ms.append((now - max(due, conn.free_since)) * 1e3)
            index += 1
        if now > deadline:
            raise TimeoutError("open loop: responses missing 5 s after schedule")
        if idle and index < total:
            wait = start + index * interval - now
            # Sleep until shortly before the next send, then poll: a sleeping
            # wakeup is late by tens of microseconds, a poll is not.
            wait = wait - _SPIN_S if wait > 2 * _SPIN_S else 0.0
        else:
            wait = 0.05  # every connection busy: wait for a response
        readable, _, _ = select.select(socks, [], [], wait)
        for sock in readable:
            conn = by_sock[sock]
            conn.fill()
            status = conn.take()
            if status is None:
                continue
            done = time.perf_counter()
            due, sent = conn.in_flight
            latency_ms.append((done - due) * 1e3)
            latency_index.append(sent)
            failed += status != 200
            received += 1
            conn.in_flight = None
            conn.free_since = done
            idle.append(conn)
    return {
        "sent": total,
        "failed": failed,
        "elapsed_s": time.perf_counter() - start,
        "latency_ms": latency_ms,
        "latency_index": latency_index,
        "late_ms": late_ms,
        "generator_cpu_s": cpu_seconds(os.getpid()) - cpu_gen,
        "server_cpu_s": cpu_seconds(server_pid) - cpu_srv,
    }


def main() -> int:
    plan = json.load(sys.stdin)
    tighten_timer_slack()
    if plan["cpu"] is not None:
        os.sched_setaffinity(0, {plan["cpu"]})
    url = urllib.parse.urlsplit(plan["url"])
    conns = [
        Connection(url.hostname, url.port) for _ in range(plan["connections"])
    ]
    try:
        check = check_phase(conns[0], plan["targets"])
        requests = [request_bytes(target) for target in plan["targets"]]
        closed = closed_phase(conns, requests, plan)
        opened = open_phase(
            conns, requests, plan["rate"], plan["open_s"], plan["server_pid"]
        )
    finally:
        for conn in conns:
            conn.sock.close()
    json.dump({"check": check, "closed": closed, "open": opened}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
