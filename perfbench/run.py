"""One layered benchmark for the study pipeline and the relay data API.

Run from the repository root::

    python3 perfbench/run.py --workload study --seed 7 --seconds 8 --trace 0

Every workload runs the study pipeline as a user would: build a world,
simulate the 198-day window, collect the dataset, save and load the
artifact, print the report.  Workloads (see ``BENCHMARK.json``):

* ``study``  -- MEV-Boost regime: builder packing, relays, the exec cache;
* ``epbs``   -- enshrined PBS: bid commit, reveal, PTC vote, escrow;
* ``local``  -- every proposer builds locally: the bypass workload;
* ``relay-api`` -- ``python -m repro serve --workers 1`` on the pinned-seed
  MEV-Boost dataset, driven by the relay-API crawl for all of
  ``--seconds``; the request sequence comes from ``--seed``.

Every workload reports every end-to-end metric, so the three simulation
workloads also answer the crawl of their own dataset through an
in-process ``QueryService`` (``rps``), and ``relay-api`` also reports the
simulation that produced its dataset (``simulate_s``).  Timings are
normalized by host speed (``hostspeed.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
pipeline untraced and traced, checks both give the same digests, and
prints the per-layer metrics with a table that adds up to the traced
wall time.  Metric names and units come from ``BENCHMARK.json``.  The
last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
PINS = HERE / "pins.json"

#: The full run: the 198-day window at 3 blocks/day, 1500 distinct
#: requests, an open loop at 1000 requests/s.
SCALE = {"days": 198, "blocks_per_day": 3, "requests": 1500, "rate": 1000.0}
#: The self-check's scale: a few slots and a few hundred requests.
TINY = {"days": 2, "blocks_per_day": 3, "requests": 300, "rate": 500.0}
CLOSED_SHARE = 0.6  # of relay-api's serve window; the open loop gets the rest
IN_PROCESS_SHARE = 0.5  # of --seconds, timing the in-process crawl
SETUP_REPEATS = 3
SERVED = "relay-api"
REGIMES = {"study": "mev_boost", "epbs": "epbs", "local": "local", SERVED: "mev_boost"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(REGIMES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-check scale")
    parser.add_argument("--pins", default=str(PINS), help="pinned digests (JSON)")
    return parser.parse_args(argv)


def host_info() -> dict:
    import numpy
    import scipy

    from repro.perf.sharding import host_cpu_count

    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode())
        source.update(path.read_bytes())
    return {
        "host_cpus": host_cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "source_sha256": source.hexdigest()[:16],
    }


def pin_mismatches(pins: dict, scale: dict, world_seed: int, request_seed: int,
                   workload: str, digests: dict) -> list[str]:
    """Digests that differ from the pins for this configuration."""
    same_scale = all(pins.get(key) == scale[key] for key in ("days", "blocks_per_day", "requests"))
    pinned = pins.get("digests", {}).get(workload, {})
    if not same_scale or not pinned:
        return []
    wrong = []
    for name, value in digests.items():
        seed = request_seed if name == "responses" else world_seed
        if seed == pins.get("seed") and name in pinned and pinned[name] != value:
            wrong.append(name)
    return wrong


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import pipeline
    import serving
    from hostspeed import HostSpeed
    from repro.serve.service import QueryService
    from repro.simulation import SimulationConfig

    served = args.workload == SERVED
    scale = TINY if args.tiny else SCALE
    pins = json.loads(Path(args.pins).read_text())
    world_seed = pins["seed"] if served else args.seed
    config = SimulationConfig(
        seed=world_seed,
        num_days=scale["days"],
        blocks_per_day=scale["blocks_per_day"],
        regime=REGIMES[args.workload],
    )
    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    print("host " + json.dumps(host_info()))
    repeats = 1 if args.trace or served else SETUP_REPEATS
    result = None
    try:
        if args.trace:
            base = pipeline.run_pipeline(config, work / "untraced")
            run = pipeline.run_pipeline(config, work / "traced", trace=True)
            runs = [base, run]
        else:
            run = pipeline.run_pipeline(config, work / "artifacts", setup_repeats=repeats)
            runs = [run]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        service = QueryService(run.dataset)
        template = serving.crawl_template(run.dataset, args.seed, scale["requests"])
        check = serving.resolve(service, template)
        if served:
            artifacts = work / ("traced" if args.trace else "artifacts")
            command = serving.server_command(config, artifacts)
            env = serving.subprocess_env(ROOT)
            ready = []
            launches = 1 if args.trace else SETUP_REPEATS
            for attempt in range(launches):
                speed = HostSpeed()
                speed.sample(pipeline.STAGE_SAMPLES)
                server = serving.launch(command, env, work / "server.log")
                ready.append(server.ready_s * speed.scale())
                if attempt < launches - 1:
                    server.stop()
            try:
                closed_s = args.seconds * CLOSED_SHARE
                result = serving.drive(
                    server, check["targets"], closed_s, args.seconds - closed_s, scale["rate"]
                )
                peak_rss_mb = server.peak_rss_mb()
            finally:
                server.stop()
            serve = serving.summarize(result, scale["rate"])
            setup_s, rps = statistics.median(ready), serve["rps"]
            attempted, failed = serve["attempted"], serve["failed"]
        else:
            setup_s = run.normalized["setup"]
            raw_rps, rps = serving.in_process_rps(
                service, check["targets"], args.seconds * IN_PROCESS_SHARE
            )
            attempted, failed = 0, 0
        attempted += len(check["statuses"]) + len(runs)
        failed += sum(status != 200 for status in check["statuses"])
        if args.trace:
            layers = serving.service_layers(
                run.dataset, check, result["open"] if served else None
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)

    digests = {
        "world": run.world_digest,
        "dataset": run.dataset_digest,
        "report": run.report_digest,
        "responses": check["digest"],
    }
    problems = [
        f"digest {name} differs from the pin"
        for name in pin_mismatches(pins, scale, world_seed, args.seed, args.workload, digests)
    ]
    if any(
        (other.world_digest, other.dataset_digest, other.report_digest)
        != (run.world_digest, run.dataset_digest, run.report_digest)
        for other in runs
    ):
        problems.append("the traced run's digests differ from the untraced run's")
    if result is not None and result["check"]["digest"] != check["digest"]:
        problems.append("the responses served over HTTP differ from the in-process ones")
    failed += len(problems)
    for problem in problems:
        print(f"FAIL {problem}")
    print("digests " + json.dumps({"seed": args.seed, "world_seed": world_seed, **digests}))
    print(
        f"simulate: {run.stages['simulate']:.3f} s wall, {run.normalized['simulate']:.3f} s "
        f"normalized; dataset {run.stages['dataset']:.3f} s wall, "
        f"{run.normalized['dataset']:.3f} s normalized (collect + save + load + report)"
    )
    if served:
        print(
            f"serve: closed loop {serve['raw_rps']:.0f} req/s raw, {rps:.0f} normalized "
            f"(reference {serve['reference_us']:.1f} us on the server's CPU); open loop at "
            f"{scale['rate']:.0f} req/s: p50 {serve['p50_ms']:.3f} ms, p99 "
            f"{serve['p99_ms']:.3f} ms (median of {serve['windows']} one-second windows, "
            f"{serve['samples']} samples); generator late p99 "
            f"{serve['generator_late_p99_ms']:.3f} ms; closed-loop CPU share generator "
            f"{serve['closed_generator_cpu_share']:.2f}, server "
            f"{serve['closed_server_cpu_share']:.2f}"
        )
    else:
        print(f"in-process crawl: {raw_rps:.0f} req/s raw, {rps:.0f} normalized")
    print(f"error_rate {failed / attempted:.6f} ({failed}/{attempted})")

    if args.trace:
        metrics, rows = pipeline.layer_metrics(run)
        metrics.update(layers)
        no_server = {"serve.p50_ms": 0.0, "serve.p99_ms": 0.0, "serve.open_samples": 0,
                     "serve.generator_late_p99_ms": 0.0, "serve.generator_cpu_share": 0.0,
                     "serve.server_cpu_share": 0.0}
        metrics.update(
            {
                "simulate_wall_s": run.stages["simulate"],
                "dataset_s": run.normalized["dataset"],
                **(
                    {
                        "serve.p50_ms": serve["p50_ms"],
                        "serve.p99_ms": serve["p99_ms"],
                        "serve.open_samples": serve["samples"],
                        "serve.generator_late_p99_ms": serve["generator_late_p99_ms"],
                        "serve.generator_cpu_share": serve["closed_generator_cpu_share"],
                        "serve.server_cpu_share": serve["closed_server_cpu_share"],
                    }
                    if served
                    else no_server
                ),
                "trace.wall_s": run.wall_s,
                "trace.overhead_s": run.normalized["simulate"] - base.normalized["simulate"],
            }
        )
        print(f"\nper-layer self time, traced pipeline ({run.wall_s:.3f} s wall):")
        for name, seconds in rows:
            print(f"  {name:<30} {seconds:10.4f} s  {seconds / run.wall_s:7.2%}")
        print(f"  {'sum':<30} {sum(s for _, s in rows):10.4f} s")
        print(
            f"tracing overhead: simulate {run.normalized['simulate']:.3f} s traced, "
            f"{base.normalized['simulate']:.3f} s untraced (normalized)"
        )
        write_trace(args, run, rows)
        section = "per_layer"
    else:
        section = "end_to_end"
        metrics = {
            "setup_s": setup_s,
            "simulate_s": run.normalized["simulate"],
            "rps": rps,
            "peak_rss_mb": peak_rss_mb,
        }
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    output = {
        metric["name"]: {"value": metrics[metric["name"]], "unit": metric["unit"]}
        for metric in bench[section]
    }
    print()
    for name, entry in output.items():
        print(f"  {name:<36} {entry['value']:14.6f} {entry['unit']}")
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": output}
    ))
    return 0


def write_trace(args, run, rows) -> None:
    """Slot spans as Chrome trace events, plus the layer table."""
    spans = run.tracer.spans
    origin = spans[0][1] if spans else 0.0
    events = [
        {"name": name, "ph": "X", "pid": 1, "tid": 1,
         "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6}
        for name, start, end in spans
    ]
    out = ROOT / ".perfbench" / "traces" / f"{args.workload}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"traceEvents": events, "layers_s": dict(rows)}))


if __name__ == "__main__":
    sys.exit(main())
