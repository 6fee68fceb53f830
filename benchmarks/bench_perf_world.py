"""Shard-worker scaling curve: one epoch-segment plan across worker counts.

The scenario is partitioned into epoch segments (``segment_days``) and
executed across ``shard_workers`` processes (:mod:`repro.perf.sharding`),
once per worker count in ``--shard-curve``.  Every point of the curve
must produce the *same* sharded run digest (worker count is scheduling,
not semantics); the curve plus the recorded ``host_cpus`` shows how much
of the wall time process sharding recovers on this machine.

Everything else a world costs — setup, simulate, collect, artifact save
and load, report — is measured by ``perfbench/`` in paired runs with
pinned digests; this script measures only what perfbench does not.

Writes ``BENCH_perf.json`` at the repo root: ``scale`` and ``sharded``
(seconds, blocks/sec and speedup vs the 1-worker run per curve point,
plus the merged builder-phase share).  Full scale, or scaled down with
``--days 4 --blocks 8 --segment-days 2``::

    PYTHONPATH=src python benchmarks/bench_perf_world.py --shard-curve 1,2
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import time
from pathlib import Path

from repro.perf.sharding import host_cpu_count, run_sharded
from repro.simulation import SimulationConfig

_REPO_ROOT = Path(__file__).resolve().parents[1]
_DEFAULT_OUT = _REPO_ROOT / "BENCH_perf.json"


def run_shard_curve(
    base_config: SimulationConfig,
    segment_days: int,
    worker_counts: tuple[int, ...],
) -> dict:
    """One sharded run per worker count; digests must never diverge.

    The segment plan is pinned by ``segment_days`` across the whole
    curve, so every point executes the same segments — any digest
    mismatch means process placement leaked into the simulation and is a
    hard benchmark failure, not a data point.
    """
    curve = []
    reference_digest: str | None = None
    builder_phase_share = None
    blocks = 0
    for workers in worker_counts:
        config = dataclasses.replace(
            base_config, segment_days=segment_days, shard_workers=workers
        )
        start = time.perf_counter()
        run = run_sharded(config)
        seconds = time.perf_counter() - start
        if reference_digest is None:
            reference_digest = run.digest()
            builder_phase_share = run.perf.share("builder_phase", "slot_loop")
            blocks = run.blocks
        elif run.digest() != reference_digest:
            raise RuntimeError(
                f"sharded run at {workers} workers diverged: "
                f"{run.digest()[:16]} != {reference_digest[:16]}"
            )
        curve.append(
            {
                "shard_workers": workers,
                "seconds": round(seconds, 3),
                "blocks_per_second": round(blocks / seconds, 2),
            }
        )
    serial_secs = curve[0]["seconds"]
    host_cpus = host_cpu_count()
    for point in curve:
        # A worker count beyond the host's CPUs measures scheduler
        # contention, not scaling — annotate it and skip the speedup
        # claim rather than publish a misleading number.
        oversubscribed = host_cpus < point["shard_workers"]
        point["oversubscribed"] = oversubscribed
        point["speedup_vs_serial"] = (
            None
            if oversubscribed
            else round(serial_secs / point["seconds"], 2)
        )
    return {
        "description": (
            "epoch-segment plan executed across shard_workers processes; "
            "every curve point reproduces the same run digest"
        ),
        "segment_days": segment_days,
        "num_segments": -(-base_config.num_days // segment_days),
        "host_cpus": host_cpus,
        "digest": (reference_digest or "")[:16],
        "digests_equal": True,
        "blocks": blocks,
        "builder_phase_share": round(builder_phase_share or 0.0, 3),
        "curve": curve,
    }


def run_benchmark(
    num_days: int,
    blocks_per_day: int,
    segment_days: int,
    shard_curve: tuple[int, ...],
) -> dict:
    """The seed-7 world's scaling curve as the JSON-ready payload."""
    config = SimulationConfig(
        seed=7, num_days=num_days, blocks_per_day=blocks_per_day
    )
    return {
        "scale": {"num_days": num_days, "blocks_per_day": blocks_per_day},
        "sharded": run_shard_curve(config, segment_days, shard_curve),
    }


def test_shard_curve_smoke():
    """Tiny sharded curve: both worker counts reproduce one digest."""
    payload = run_benchmark(
        num_days=4, blocks_per_day=8, segment_days=2, shard_curve=(1, 2)
    )
    sharded = payload["sharded"]
    assert sharded["digests_equal"] is True
    assert sharded["num_segments"] == 2
    assert sharded["host_cpus"] >= 1
    assert [p["shard_workers"] for p in sharded["curve"]] == [1, 2]
    for point in sharded["curve"]:
        assert point["oversubscribed"] == (
            sharded["host_cpus"] < point["shard_workers"]
        )
        if point["oversubscribed"]:
            assert point["speedup_vs_serial"] is None
        else:
            assert point["speedup_vs_serial"] > 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--days", type=int, default=198)
    parser.add_argument("--blocks", type=int, default=40)
    parser.add_argument("--out", type=Path, default=_DEFAULT_OUT)
    parser.add_argument(
        "--segment-days",
        type=int,
        default=22,
        help="epoch-segment length shared by every curve point",
    )
    parser.add_argument(
        "--shard-curve",
        default="1,2,4,8",
        help="comma-separated shard_workers counts",
    )
    args = parser.parse_args()

    curve = tuple(int(w) for w in args.shard_curve.split(",") if w.strip())
    if args.segment_days <= 0 or not curve:
        parser.error("the curve needs --segment-days > 0 and a worker count")
    payload = run_benchmark(args.days, args.blocks, args.segment_days, curve)
    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(json.dumps(payload, indent=2))
    print(f"\nwrote {args.out}")


if __name__ == "__main__":
    main()
