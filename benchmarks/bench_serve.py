"""Many-client load benchmark for the ``python -m repro serve`` worker pool.

For each worker count in ``--workers`` (e.g. ``1,2,4``) it boots the
service as a subprocess with that many pre-forked workers, waits for its
``READY <url> workers=<n>`` line, then drives the mode's concurrent
keep-alive clients through a deterministic workload mix — payload cursor
walks (the index-layer pagination path), exact-slot submission queries,
registration pages, the /analysis/* endpoints and service metadata.
Each worker count is one point in ``BENCH_serve.json``: status counts,
connection failures, throughput and latency percentiles overall *and*
per endpoint class (``paginated`` / ``analysis`` / ``metadata``), with
the host's ``host_cpus`` and an ``oversubscribed`` flag on points whose
workers plus this script's load generator, one more busy process on the
same CPUs, outnumber the CPUs; such a point publishes no speedup.
perfbench's ``relay-api`` workload measures the serve path itself, over
two connections to one server; this script measures what it does not,
many clients against a worker pool.

Modes::

    python benchmarks/bench_serve.py --mode full --workers 1,2,4  # 198-day artifact, 1000 clients
    python benchmarks/bench_serve.py --mode smoke --workers 1,2   # small world, 100 clients (CI)

``full`` reads the artifact cache, so it first boots one unmeasured
server and stops it at ``READY``: on a cold cache that server simulates
the world and saves the artifact, and every measured point loads it warm.
Servers inherit this process's environment (``REPRO_ARTIFACT_CACHE``,
``PYTHONDONTWRITEBYTECODE``) with ``PYTHONPATH`` pointed at ``src``.

``--baseline BENCH_serve.json`` turns the run into a pass/fail gate on
every point: any 5xx or connection failure fails, and so does a p99
above ``max(MAX_P99_RATIO x the committed 1-worker p99, P99_FLOOR_MS)``
— the floor absorbs scheduler noise on small CI boxes.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

from repro.perf.sharding import host_cpu_count

REPO = pathlib.Path(__file__).resolve().parent.parent
OUT_PATH = REPO / "BENCH_serve.json"
#: The gate's p99 bound: this many times the committed 1-worker p99 ...
MAX_P99_RATIO = 2.0
#: ... but never below this floor, which absorbs small-runner noise.
P99_FLOOR_MS = 250.0

PAYLOADS = "/relay/v1/data/bidtraces/proposer_payload_delivered"
SUBMISSIONS = "/relay/v1/data/bidtraces/builder_blocks_received"
REGISTRATIONS = "/relay/v1/data/validators/registration"
ANALYSIS = ["/analysis/hhi", "/analysis/value_split", "/analysis/censorship"]
METADATA = ["/relays", "/inventory", "/healthz"]

MODES = {
    "full": {
        "serve_args": [],  # CLI defaults == the 198-day benchmark artifact
        "clients": 1000,
        "requests_per_client": 10,
        "description": (
            "198-day benchmark artifact (CLI defaults), keep-alive clients, "
            "mixed workload: cursor walks / slot queries / registrations / "
            "analysis / metadata"
        ),
    },
    "smoke": {
        "serve_args": ["--days", "6", "--blocks-per-day", "8",
                       "--validators", "120", "--no-artifact-cache"],
        "clients": 100,
        "requests_per_client": 5,
        "description": "CI smoke: small simulated world, 100 clients",
    },
}


def _endpoint_class(target: str) -> str:
    if target.startswith("/analysis/"):
        return "analysis"
    if target.startswith("/relay/v1/data/"):
        return "paginated"
    return "metadata"


class Client:
    """One keep-alive connection issuing its deterministic request mix."""

    def __init__(self, host: str, port: int, index: int, requests: int) -> None:
        self.host = host
        self.port = port
        self.index = index
        self.requests = requests
        self.latencies_ms: list[tuple[str, float]] = []
        self.statuses: dict[int, int] = {}
        self.failures = 0

    def _targets(self):
        """The request sequence for this client — varied but deterministic."""
        for n in range(self.requests):
            kind = (self.index + n) % 6
            if kind == 0:
                # Cursor walk start page: the bisect seek path.
                yield f"{PAYLOADS}?limit=100", "walk"
            elif kind == 1:
                # Post-merge slot numbering (MERGE_SLOT=4_700_013); the
                # 198-day x 40 blocks/day window spans ~7920 slots.
                yield f"{SUBMISSIONS}?slot={4_700_013 + (self.index * 7 + n) % 7920}", None
            elif kind == 2:
                yield f"{REGISTRATIONS}?limit={50 + self.index % 200}", None
            elif kind == 3:
                yield ANALYSIS[(self.index + n) % len(ANALYSIS)], None
            elif kind == 4:
                yield METADATA[(self.index + n) % len(METADATA)], None
            else:
                yield f"{PAYLOADS}?limit={1 + self.index % 500}", None

    async def run(self, connect_gate: asyncio.Semaphore) -> None:
        try:
            async with connect_gate:
                reader, writer = await asyncio.open_connection(
                    self.host, self.port, limit=1 << 20
                )
        except OSError:
            self.failures += self.requests
            return
        try:
            for target, mode in self._targets():
                cursor = await self._timed(reader, writer, target)
                if mode == "walk" and cursor:
                    # Follow up to two more pages through the cursor chain.
                    for _ in range(2):
                        cursor = await self._timed(
                            reader, writer, f"{PAYLOADS}?limit=100&cursor={cursor}"
                        )
                        if not cursor:
                            break
        except (OSError, asyncio.IncompleteReadError):
            self.failures += 1
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:
                pass

    async def _timed(self, reader, writer, target: str) -> str | None:
        start = time.perf_counter()
        writer.write(f"GET {target} HTTP/1.1\r\nhost: bench\r\n\r\n".encode())
        await writer.drain()
        status, headers = await _read_response(reader)
        self.latencies_ms.append(
            (_endpoint_class(target), (time.perf_counter() - start) * 1000.0)
        )
        self.statuses[status] = self.statuses.get(status, 0) + 1
        return headers.get("x-next-cursor")


async def _read_response(reader) -> tuple[int, dict[str, str]]:
    status_line = await reader.readline()
    status = int(status_line.split(b" ", 2)[1])
    headers: dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    await reader.readexactly(int(headers["content-length"]))
    return status, headers


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    position = min(len(sorted_values) - 1, round(q * (len(sorted_values) - 1)))
    return sorted_values[position]


def _latency_stats(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    return {
        "p50": round(_percentile(ordered, 0.50), 3),
        "p90": round(_percentile(ordered, 0.90), 3),
        "p99": round(_percentile(ordered, 0.99), 3),
        "mean": round(statistics.fmean(ordered), 3) if ordered else 0.0,
        "max": round(ordered[-1], 3) if ordered else 0.0,
    }


async def _drive(host: str, port: int, clients: int, requests: int) -> dict:
    # Warm the analysis cache and the index before timing.
    warmup = Client(host, port, index=3, requests=len(ANALYSIS) + 3)
    await warmup.run(asyncio.Semaphore(1))
    if warmup.failures:
        raise RuntimeError("warmup requests failed")

    fleet = [Client(host, port, i, requests) for i in range(clients)]
    # Connects are staggered (the listen backlog is finite) but every
    # client holds its connection and issues requests concurrently.
    gate = asyncio.Semaphore(64)
    started = time.perf_counter()
    await asyncio.gather(*(c.run(gate) for c in fleet))
    wall = time.perf_counter() - started

    samples = [sample for c in fleet for sample in c.latencies_ms]
    latencies = [latency for _, latency in samples]
    by_class: dict[str, list[float]] = {}
    for endpoint_class, latency in samples:
        by_class.setdefault(endpoint_class, []).append(latency)
    statuses: dict[int, int] = {}
    for c in fleet:
        for status, count in c.statuses.items():
            statuses[status] = statuses.get(status, 0) + count
    failures = sum(c.failures for c in fleet)
    return {
        "concurrent_clients": clients,
        "requests": len(latencies),
        "wall_seconds": round(wall, 3),
        "requests_per_second": round(len(latencies) / wall, 1) if wall else 0.0,
        "latency_ms": _latency_stats(latencies),
        "latency_ms_by_class": {
            endpoint_class: {
                "requests": len(values),
                **_latency_stats(values),
            }
            for endpoint_class, values in sorted(by_class.items())
        },
        "status_counts": {str(k): v for k, v in sorted(statuses.items())},
        "connection_failures": failures,
    }


def _launch_server(serve_args: list[str]) -> tuple[subprocess.Popen, str, int]:
    command = [
        sys.executable, "-m", "repro", "serve", "--port", "0", *serve_args
    ]
    process = subprocess.Popen(
        command,
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
    )
    deadline = time.monotonic() + 900  # cold 198-day simulation takes minutes
    while True:
        line = process.stdout.readline()
        if line.startswith("READY "):
            # "READY <url> workers=<n>"
            url = line.split()[1]
            break
        if not line and process.poll() is not None:
            raise RuntimeError(f"server exited early with {process.returncode}")
        if time.monotonic() > deadline:
            process.kill()
            raise RuntimeError("server never became ready")
    host, port_text = url.removeprefix("http://").rsplit(":", 1)
    return process, host, int(port_text)


def _run_point(serve_args: list[str], clients: int, requests: int) -> dict:
    process, host, port = _launch_server(serve_args)
    try:
        print(
            f"[bench_serve] driving {clients} clients x {requests} requests "
            f"against {host}:{port}",
            file=sys.stderr,
        )
        return asyncio.run(_drive(host, port, clients, requests))
    finally:
        process.terminate()
        process.wait(timeout=30)


def _gate(points: list[dict], baseline_path: pathlib.Path, mode: str) -> list[str]:
    """Every point against one bound from the committed 1-worker p99."""
    baseline = json.loads(baseline_path.read_text()).get(mode, {})
    committed = {p["workers"]: p for p in baseline.get("points", ())}.get(1)
    if committed is None:
        return [f"baseline {baseline_path} has no 1-worker {mode!r} point"]
    committed_p99 = committed["latency_ms"]["p99"]
    allowed = max(MAX_P99_RATIO * committed_p99, P99_FLOOR_MS)
    problems = []
    for point in points:
        label = f"workers={point['workers']}"
        server_errors = sum(
            count for status, count in point["status_counts"].items()
            if status.startswith("5")
        )
        if server_errors:
            problems.append(f"{label}: {server_errors} responses were 5xx")
        if point["connection_failures"]:
            problems.append(
                f"{label}: {point['connection_failures']} connection failures"
            )
        measured = point["latency_ms"]["p99"]
        if measured > allowed:
            problems.append(
                f"{label}: p99 {measured:.1f}ms exceeds allowed "
                f"{allowed:.1f}ms (baseline {committed_p99:.1f}ms x "
                f"{MAX_P99_RATIO}, floor {P99_FLOOR_MS}ms)"
            )
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=sorted(MODES), default="smoke")
    parser.add_argument(
        "--workers", default="1",
        help="comma-separated worker counts (e.g. 1,2,4): one server boot "
             "and one full point per count",
    )
    parser.add_argument("--out", type=pathlib.Path, default=OUT_PATH)
    parser.add_argument(
        "--baseline", type=pathlib.Path, default=None,
        help="compare every point against this committed BENCH_serve.json "
             "and exit non-zero on any 5xx, connection failure or p99 "
             "regression",
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="do not update --out (gate-only runs)",
    )
    args = parser.parse_args()

    spec = MODES[args.mode]
    host_cpus = host_cpu_count()
    if "--no-artifact-cache" not in spec["serve_args"]:
        # On a cold artifact cache the first server would simulate the
        # world and then serve from that process; boot one unmeasured
        # server so that every measured point loads the artifact warm.
        print("[bench_serve] warming the artifact cache...", file=sys.stderr)
        process, _, _ = _launch_server(spec["serve_args"] + ["--workers", "1"])
        process.terminate()
        process.wait(timeout=30)
    points = []
    for workers in (int(w) for w in args.workers.split(",") if w.strip()):
        print(
            f"[bench_serve] booting server ({args.mode}, workers={workers})...",
            file=sys.stderr,
        )
        run = _run_point(
            spec["serve_args"] + ["--workers", str(workers)],
            spec["clients"], spec["requests_per_client"],
        )
        # Workers plus this process's load generator beyond the host's
        # CPUs measure scheduler contention, not scaling — annotate the
        # point and skip the speedup claim rather than publish a
        # misleading number.
        points.append(
            {"workers": workers, "oversubscribed": workers + 1 > host_cpus, **run}
        )
    one_worker_rps = next(
        (p["requests_per_second"] for p in points if p["workers"] == 1), None
    )
    for point in points:
        point["speedup_vs_one_worker"] = (
            None
            if point["oversubscribed"] or not one_worker_rps
            else round(point["requests_per_second"] / one_worker_rps, 2)
        )
    section = {
        "description": spec["description"],
        "host_cpus": host_cpus,
        "points": points,
    }
    print(json.dumps({args.mode: section}, indent=2))

    if not args.no_write:
        merged = {}
        if args.out.exists():
            merged = json.loads(args.out.read_text())
        merged[args.mode] = section
        args.out.write_text(json.dumps(merged, indent=2) + "\n")
        print(f"[bench_serve] wrote {args.out}", file=sys.stderr)

    if args.baseline is not None:
        problems = _gate(points, args.baseline, args.mode)
        if problems:
            for problem in problems:
                print(f"[bench_serve] FAIL: {problem}", file=sys.stderr)
            return 1
        print("[bench_serve] gate passed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
