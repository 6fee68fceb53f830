"""The relay data API under load: the crawl, the server, the statistics.

The traffic is the paper's crawl of the relay data APIs (DESIGN.md §8):
for every relay, a cursor walk over ``proposer_payload_delivered`` at the
API's default page size (200 rows), one ``builder_blocks_received`` query
per slot, and one registration lookup per registered validator.  Each of
these requests appears as often as a complete crawl of the dataset would
make it; a run draws ``count`` of them at random from ``--seed``.  The
dashboard minority polling ``/analysis/*``, ``/relays`` and
``/inventory`` is not from any source: it is fixed at a tenth of the
requests, the five endpoints equally often.  Its repeated keys are what
the 128-entry response LRU hits; the crawl's keys do not repeat.

Every connection carries one request at a time, as a crawler's does.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import select
import statistics
import subprocess
import sys
import urllib.parse
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import hostspeed
from hostspeed import HostSpeed

CLASSES = ("walk", "slot", "registration", "analysis", "metadata")
DASHBOARD_SHARE = 0.1
PAGE_ROWS = 200  # the API's default limit
_PAYLOADS = "/relay/v1/data/bidtraces/proposer_payload_delivered"
_SUBMISSIONS = "/relay/v1/data/bidtraces/builder_blocks_received"
_REGISTRATIONS = "/relay/v1/data/validators/registration"
_DASHBOARD = (
    ("analysis", "/analysis/hhi"),
    ("analysis", "/analysis/value_split"),
    ("analysis", "/analysis/censorship"),
    ("metadata", "/relays"),
    ("metadata", "/inventory"),
)

HERE = Path(__file__).resolve().parent
OPEN_WINDOW_S = 1.0
#: Throughput is measured in windows, each normalized by the reference
#: timed just before it (after one warm-up call) and the median taken:
#: the host's speed changes within seconds, so a window is paired with a
#: reference taken close to it in time.
WINDOW_S = 0.1
WINDOW_SAMPLES = 3


def crawl_template(dataset, seed: int, count: int) -> list[dict]:
    """``count`` requests: a random draw from a full crawl plus the dashboard.

    Walk entries name the relay whose walk they continue; :func:`resolve`
    appends the cursor the previous page of that walk returned.
    """
    slots = np.unique(dataset.table.col("slot")).tolist()
    crawl = []
    for name in sorted(dataset.relays):
        data = dataset.relays[name].data
        relay = urllib.parse.quote(name)
        pages = max(math.ceil(len(data.get_payloads_delivered()) / PAGE_ROWS), 1)
        crawl += [{"cls": "walk", "target": f"{_PAYLOADS}?relay={relay}", "walk": name}] * pages
        crawl += [
            {"cls": "slot", "target": f"{_SUBMISSIONS}?relay={relay}&slot={slot}"}
            for slot in slots
        ]
        crawl += [
            {"cls": "registration",
             "target": f"{_REGISTRATIONS}?relay={relay}&pubkey={reg.validator_pubkey}"}
            for reg in data.get_validator_registrations()
        ]
    rng = np.random.default_rng(seed)
    crawl = [crawl[i] for i in rng.permutation(len(crawl))]
    chosen = crawl[: count - round(count * DASHBOARD_SHARE)]
    chosen += [
        {"cls": cls, "target": target}
        for cls, target in (
            _DASHBOARD[i] for i in rng.integers(len(_DASHBOARD), size=count - len(chosen))
        )
    ]
    return [chosen[i] for i in rng.permutation(len(chosen))]


def split_target(target: str) -> tuple[str, dict]:
    """Path and params exactly as the HTTP front end derives them."""
    if "?" not in target:
        return target, {}
    parsed = urllib.parse.urlsplit(target)
    params = {
        key: values[-1]
        for key, values in urllib.parse.parse_qs(parsed.query, keep_blank_values=True).items()
    }
    return parsed.path, params


def resolve(service, template: list) -> dict:
    """Answer the template in-process, in order: targets, classes, digest.

    A walk entry continues from the ``x-next-cursor`` its relay's previous
    page returned, and starts over once a walk is done.  The digest is
    over (target, status, body) of every response, as the load generator
    computes it over HTTP.
    """
    digest = hashlib.sha256()
    cursors: dict[str, str | None] = {}
    check = {"targets": [], "classes": [], "statuses": [], "body_bytes": []}
    for entry in template:
        target = entry["target"]
        walk = entry.get("walk")
        if walk is not None and cursors.get(walk) is not None:
            target += "&cursor=" + urllib.parse.quote(cursors[walk])
        response = service.handle(*split_target(target))
        if walk is not None:
            cursors[walk] = response.headers.get("x-next-cursor")
        digest.update(f"{target}\n{response.status}\n{len(response.body)}\n".encode())
        digest.update(response.body)
        check["targets"].append(target)
        check["classes"].append(entry["cls"])
        check["statuses"].append(response.status)
        check["body_bytes"].append(len(response.body))
    check["digest"] = digest.hexdigest()
    return check


def in_process_rps(service, targets: list, seconds: float) -> tuple[float, float]:
    """``QueryService.handle`` throughput over ``targets``, cycled, in
    windows with the host-speed reference timed before each: requests per
    second, raw (over all windows) and the median of the windows' rates
    normalized by their own reference."""
    requests = [split_target(target) for target in targets]
    done = busy = 0
    normalized = []
    for _ in range(max(round(seconds / WINDOW_S), 1)):
        speed = HostSpeed()
        speed.sample(WINDOW_SAMPLES, warmup=1)
        count = 0
        start = perf_counter()
        stop = start + WINDOW_S
        while perf_counter() < stop:
            service.handle(*requests[done % len(requests)])
            done += 1
            count += 1
        elapsed = perf_counter() - start
        busy += elapsed
        normalized.append(count / elapsed / speed.scale())
    return done / busy, statistics.median(normalized)


def server_command(config, artifact_dir: Path) -> list[str]:
    return [
        sys.executable, "-m", "repro", "serve", "--workers", "1",
        "--seed", str(config.seed),
        "--days", str(config.num_days),
        "--blocks-per-day", str(config.blocks_per_day),
        "--validators", str(config.num_validators),
        "--artifact-dir", str(artifact_dir),
        "--port", "0",
    ]


@dataclass
class Server:
    process: subprocess.Popen
    url: str
    ready_s: float
    log: Path

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def launch(command: list[str], env: dict, log: Path, timeout: float = 120.0) -> Server:
    """Start the server; time process launch to its ``READY`` line."""
    start = perf_counter()
    with open(log, "w") as err:
        process = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=err, env=env, text=True
        )
    server = Server(process, "", 0.0, log)
    try:
        while True:
            remaining = start + timeout - perf_counter()
            ready, _, _ = select.select([process.stdout], [], [], max(remaining, 0))
            if not ready:
                raise RuntimeError(f"server not ready within {timeout:.0f} s")
            line = process.stdout.readline()
            if not line:
                raise RuntimeError(
                    f"server exited with {process.wait()}: {log.read_text()[-2000:]}"
                )
            if line.startswith("READY "):
                server.url = line.split()[1]
                server.ready_s = perf_counter() - start
                break
        if "simulating" in log.read_text():
            raise RuntimeError("server missed the artifact and simulated")
        return server
    except BaseException:
        server.stop()
        raise


def drive(server: Server, targets: list, closed_s: float, open_s: float, rate: float) -> dict:
    """Run the generator process against ``server``; its result object.

    With two or more CPUs the server and the generator each get one of
    their own, so neither waits for the other to be scheduled.
    """
    cpus = sorted(os.sched_getaffinity(0))
    generator_cpu = server_cpu = None
    if len(cpus) >= 2:
        generator_cpu, server_cpu = cpus[0], cpus[-1]
        os.sched_setaffinity(server.process.pid, {server_cpu})
    plan = {
        "url": server.url,
        "server_pid": server.process.pid,
        "cpu": generator_cpu,
        "server_cpu": server_cpu,
        "connections": 2,
        "window_s": WINDOW_S,
        "window_samples": WINDOW_SAMPLES,
        "targets": targets,
        "closed_s": closed_s,
        "open_s": open_s,
        "rate": rate,
    }
    done = subprocess.run(
        [sys.executable, str(HERE / "loadgen.py")],
        input=json.dumps(plan),
        capture_output=True,
        text=True,
        timeout=closed_s + open_s + 120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"load generator failed: {done.stderr[-2000:]}")
    return json.loads(done.stdout)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(int(np.ceil(q / 100.0 * len(ordered))) - 1, 0)
    return ordered[rank]


def latency_windows(opened: dict, rate: float) -> list[list[float]]:
    """Open-loop latencies grouped by the window their request was due in."""
    per_window = max(int(rate * OPEN_WINDOW_S), 1)
    windows = defaultdict(list)
    for latency, index in zip(opened["latency_ms"], opened["latency_index"]):
        windows[index // per_window].append(latency)
    full = [values for values in windows.values() if len(values) == per_window]
    return full or list(windows.values())


def summarize(result: dict, rate: float) -> dict:
    """End-to-end serve figures and generator/server health.

    ``raw_rps`` is the closed loop's completions per wall second; ``rps``
    is the median over the closed loop's windows of each window's rate
    normalized by the host-speed reference timed on the server's CPU just
    before it.  The reference does not see a server that waits (a sleep,
    a lock, Nagle, an extra round trip), so such a stall lowers ``rps`` as
    much as ``raw_rps``.  Latency percentiles are medians over the open
    loop's one-second windows (each holds ``rate`` samples, so its p99 has
    ten or more beyond it).
    """
    closed, opened = result["closed"], result["open"]
    windows = latency_windows(opened, rate)
    return {
        "raw_rps": closed["completed"] / closed["elapsed_s"],
        "rps": statistics.median(
            count / seconds / hostspeed.scale(samples)
            for count, seconds, samples in zip(
                closed["window_completed"], closed["window_s"], closed["reference_s"]
            )
        ),
        "reference_us": statistics.median(
            sample for samples in closed["reference_s"] for sample in samples
        ) * 1e6,
        "p50_ms": statistics.median(percentile(values, 50) for values in windows),
        "p99_ms": statistics.median(percentile(values, 99) for values in windows),
        "samples": len(opened["latency_ms"]),
        "windows": len(windows),
        "generator_late_p99_ms": percentile(opened["late_ms"], 99),
        "closed_generator_cpu_share": closed["generator_cpu_s"] / closed["elapsed_s"],
        "closed_server_cpu_share": closed["server_cpu_s"] / closed["elapsed_s"],
        "attempted": len(result["check"]["statuses"]) + closed["completed"] + opened["sent"],
        "failed": (
            sum(status != 200 for status in result["check"]["statuses"])
            + closed["failed"]
            + opened["failed"]
        ),
    }


def service_layers(dataset, check: dict, opened: dict | None, cycles: int = 3) -> dict:
    """Per-layer serve metrics: index build, in-process handle, HTTP overhead.

    Replays the resolved request sequence through an in-process
    ``QueryService`` (one warm-up pass, then ``cycles`` timed passes, as
    the closed loop cycles it) and compares each class's median handle
    time with its median client latency in the open loop.  Without an
    open loop (no server) the HTTP figures are 0.
    """
    from repro.serve.index import DatasetIndex
    from repro.serve.service import QueryService

    start = perf_counter()
    DatasetIndex.from_dataset(dataset)
    index_build_s = perf_counter() - start
    service = QueryService(dataset)
    requests = [split_target(target) for target in check["targets"]]
    for path, params in requests:
        service.handle(path, params)
    handle_us = defaultdict(list)
    for _ in range(cycles):
        for (path, params), cls in zip(requests, check["classes"]):
            start = perf_counter()
            service.handle(path, params)
            handle_us[cls].append((perf_counter() - start) * 1e6)
    client_us = defaultdict(list)
    if opened is not None:
        for latency, index in zip(opened["latency_ms"], opened["latency_index"]):
            client_us[check["classes"][index % len(requests)]].append(latency * 1e3)

    seen: set = set()
    repeats = cursors = 0
    for path, params in requests:
        if "cursor" in params:
            cursors += 1
            continue
        key = (path, tuple(sorted(params.items())))
        repeats += key in seen
        seen.add(key)
    metrics = {"serve.index.build_s": index_build_s}
    for cls in CLASSES:
        handle = percentile(handle_us[cls], 50) if handle_us[cls] else 0.0
        client = percentile(client_us[cls], 50) if client_us[cls] else 0.0
        metrics[f"serve.service.handle_us.{cls}"] = handle
        metrics[f"serve.http.overhead_us.{cls}"] = client - handle if client_us[cls] else 0.0
    metrics["serve.bytes_per_request"] = sum(check["body_bytes"]) / len(requests)
    metrics["serve.repeat_key_share"] = repeats / len(requests)
    metrics["serve.cursor_share"] = cursors / len(requests)
    return metrics


def subprocess_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env
