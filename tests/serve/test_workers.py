"""The pre-forked ``SO_REUSEPORT`` worker pool, over real sockets.

Each test boots a supervisor subprocess running :func:`serve_pool` over
the golden dataset and talks plain HTTP/1.1 to it.  ``/healthz`` reports
the serving worker's pid, which is how the tests observe the kernel's
accept load-balancing, crash restarts, and drain behaviour.

Connections racing a freshly killed worker can land on its dead accept
queue and get reset — that is expected ``SO_REUSEPORT`` behaviour, so
all polling here tolerates ``OSError`` and retries.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import time

import pytest

if not hasattr(socket, "SO_REUSEPORT"):
    pytest.skip("worker pool requires SO_REUSEPORT", allow_module_level=True)

DEADLINE = 30.0

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Runs inside the supervisor subprocess: golden dataset, two workers.
DRIVER = """
import sys
sys.path.insert(0, "src")
sys.path.insert(0, "tests/serve")
from conftest import build_golden_dataset
from repro.serve.workers import serve_pool

sys.exit(
    serve_pool(
        build_golden_dataset(),
        workers=2,
        port=0,
        announce=lambda url, n: print(f"READY {url} workers={n}", flush=True),
    )
)
"""


def _http_get(port: int, target: str, timeout: float = 5.0) -> tuple[int, bytes]:
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as conn:
        conn.sendall(
            b"GET %s HTTP/1.1\r\nhost: t\r\nconnection: close\r\n\r\n"
            % target.encode()
        )
        raw = b""
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            raw += chunk
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body


def _serving_pid(port: int) -> int:
    status, body = _http_get(port, "/healthz")
    assert status == 200
    return json.loads(body)["pid"]


def _poll_pids(port: int, requests: int = 40) -> set[int]:
    """Distinct worker pids over repeated connections, reset-tolerant."""
    pids: set[int] = set()
    deadline = time.monotonic() + DEADLINE
    made = 0
    while made < requests and time.monotonic() < deadline:
        try:
            pids.add(_serving_pid(port))
        except OSError:
            time.sleep(0.05)
            continue
        made += 1
    return pids


def _launch(driver: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", driver],
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


@pytest.fixture()
def pool():
    proc = _launch(DRIVER)
    try:
        line = proc.stdout.readline().strip()
        assert line.startswith("READY "), f"no READY line, got {line!r}"
        url, workers_field = line.split()[1:3]
        assert workers_field == "workers=2"
        port = int(url.rsplit(":", 1)[1])
        yield proc, port
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()
        proc.stderr.close()


def test_all_workers_serve_and_crash_restarts(pool):
    proc, port = pool

    # READY means both workers accept; the kernel spreads connections
    # across both, and neither is the supervisor.
    pids = _poll_pids(port)
    assert len(pids) == 2
    assert proc.pid not in pids

    # Kill one worker: the supervisor restarts it (0.1s base backoff)
    # and service continues — two distinct pids again, victim gone.
    victim = min(pids)
    os.kill(victim, signal.SIGKILL)
    deadline = time.monotonic() + DEADLINE
    while time.monotonic() < deadline:
        survivors = _poll_pids(port, requests=20)
        if victim not in survivors and len(survivors) == 2:
            break
        time.sleep(0.1)
    else:
        pytest.fail(f"pool never recovered: victim={victim} pids={survivors}")
    assert proc.poll() is None  # supervisor itself stayed up

    # With logging unconfigured, Python's last-resort handler writes the
    # supervisor's restart warning to stderr: one line, naming the victim.
    proc.send_signal(signal.SIGTERM)
    assert proc.wait(timeout=15) == 0
    restarts = [
        line for line in proc.stderr.read().splitlines() if "restarting" in line
    ]
    assert len(restarts) == 1, restarts
    assert f"worker {victim} " in restarts[0]


def test_sigterm_drains_inflight_request(pool):
    proc, port = pool

    # Start a request but withhold the blank line that completes the
    # header block, then SIGTERM the supervisor mid-request.
    conn = socket.create_connection(("127.0.0.1", port), timeout=10)
    try:
        conn.sendall(b"GET /healthz HTTP/1.1\r\nhost: t\r\n")
        time.sleep(0.3)
        proc.send_signal(signal.SIGTERM)
        time.sleep(0.3)

        # Completing the request during the drain still yields a full
        # response — marked `connection: close` — then EOF.
        conn.sendall(b"\r\n")
        raw = b""
        conn.settimeout(10)
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            raw += chunk
        head, _, body = raw.partition(b"\r\n\r\n")
        assert b" 200 " in head.split(b"\r\n")[0]
        assert b"connection: close" in head.lower()
        assert json.loads(body)["status"] == "ok"
    finally:
        conn.close()

    assert proc.wait(timeout=15) == 0


def test_single_worker_pool_announces_and_serves():
    proc = _launch(DRIVER.replace("workers=2,", "workers=1,"))
    try:
        line = proc.stdout.readline().strip()
        assert line.startswith("READY ")
        assert line.endswith("workers=1")
        port = int(line.split()[1].rsplit(":", 1)[1])
        pids = _poll_pids(port, requests=10)
        assert len(pids) == 1
        assert proc.pid not in pids
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=15) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait(timeout=10)
        proc.stdout.close()
        proc.stderr.close()
