"""The study pipeline as a user runs it, timed stage by stage.

``build_world`` → ``World.run`` → ``collect_study_dataset`` →
``save_study_artifact`` → ``load_study_artifact`` → report, through the
program's public functions only.  :class:`Tracer` measures the layers
from outside: it replaces the public methods of the objects a built world
exposes with timing wrappers, aggregates high-frequency calls in memory,
keeps slot-level calls (one auction per slot) as spans, and reads the
counters the program already keeps (``world.perf``).

Every stage is also reported normalized by host speed
(:mod:`hostspeed`): the reference is sampled before each build, before
each slot's auction and before each dataset stage, and its time is kept
out of the stage's own.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import hostspeed
from hostspeed import HostSpeed
from repro.analysis import (
    daily_block_value,
    daily_builder_shares,
    daily_compliant_relay_share,
    daily_hhi_series,
    daily_mev_per_block,
    daily_pbs_share,
    daily_private_tx_share,
    daily_relay_shares,
    daily_sanctioned_share,
    daily_user_payment_shares,
    regime_metrics,
    relay_trust_table,
    render_regime_comparison,
)
from repro.analysis.relays import pbs_totals_row
from repro.analysis.report import render_series, render_table
from repro.datasets import collect_study_dataset
from repro.perf.artifacts import load_study_artifact, save_study_artifact
from repro.simulation import SimulationConfig, build_world

#: Reference samples taken before each build and each dataset stage.
STAGE_SAMPLES = 10
NEIGHBOURS = 5  # per-slot reference samples on each side of a simulation chunk
DATASET_STAGES = ("collect", "save", "load", "report")


def paper_report(dataset) -> str:
    """The figures and table ``python -m repro report`` prints."""
    parts = [render_series(series) for series in daily_user_payment_shares(dataset)]
    parts.append(render_series(daily_pbs_share(dataset)))
    parts.append(
        render_series(daily_hhi_series("relay HHI", daily_relay_shares(dataset)))
    )
    parts.append(
        render_series(daily_hhi_series("builder HHI", daily_builder_shares(dataset)))
    )
    for maker in (daily_block_value, daily_private_tx_share, daily_mev_per_block):
        parts.extend(render_series(series) for series in maker(dataset))
    parts.append(render_series(daily_compliant_relay_share(dataset)))
    parts.extend(render_series(series) for series in daily_sanctioned_share(dataset))
    rows = relay_trust_table(dataset)
    table = [
        [row.relay, round(row.delivered_value_eth, 3),
         round(row.promised_value_eth, 3), round(row.share_of_value_delivered, 5),
         round(row.share_over_promised_blocks, 4), row.blocks]
        for row in rows
    ]
    totals = pbs_totals_row(rows)
    table.append(
        ["PBS", round(totals.delivered_value_eth, 3),
         round(totals.promised_value_eth, 3),
         round(totals.share_of_value_delivered, 5),
         round(totals.share_over_promised_blocks, 4), totals.blocks]
    )
    parts.append(
        render_table(
            ["relay", "delivered", "promised", "share", "overpromised", "n"],
            table,
            title="Table 4 (left)",
        )
    )
    return "\n".join(parts)


def report(config: SimulationConfig, dataset) -> str:
    """The paper figures under MEV-Boost; the regime row otherwise."""
    if config.regime == "mev_boost":
        return paper_report(dataset)
    return render_regime_comparison([regime_metrics(config.regime, dataset)])


@dataclass
class Tracer:
    """Timing wrappers around the layers of one built world."""

    seconds: dict = field(default_factory=lambda: defaultdict(float))
    calls: dict = field(default_factory=lambda: defaultdict(int))
    counts: dict = field(default_factory=lambda: defaultdict(int))
    spans: list = field(default_factory=list)  # (name, start, end)
    wrapped: list = field(default_factory=list)  # (object, method name)

    def wrap(self, obj, method: str, name: str, count=None, span: bool = False) -> None:
        original = getattr(obj, method)
        self.wrapped.append((obj, method))
        seconds, calls, counts, spans = self.seconds, self.calls, self.counts, self.spans

        def timed(*args, **kwargs):
            start = perf_counter()
            result = original(*args, **kwargs)
            end = perf_counter()
            seconds[name] += end - start
            calls[name] += 1
            if count is not None:
                counts[name] += count(result)
            if span:
                spans.append((name, start, end))
            return result

        setattr(obj, method, timed)

    def attach(self, world) -> None:
        self.wrap(world.mempool, "broadcast", "mempool.broadcast")
        for searcher in world.searchers:
            self.wrap(searcher, "find_bundles", "mev.find_bundles", count=len)
        for builder in world.builders.values():
            self.wrap(builder, "build", "core.builder.build")
        for relay in world.relays.values():
            self.wrap(relay, "receive_submission", "core.relay.receive", count=bool)
        self.wrap(world.auction.mev_boost, "get_best_bid", "core.mev_boost.select")
        self.wrap(world.auction.mev_boost, "accept", "core.mev_boost.select")
        self.wrap(world.local_builder, "build", "core.proposer.local_build")
        self.wrap(world.auction, "run", "core.auction", span=True)

    def detach(self) -> None:
        """Drop the wrappers: the world's objects get pickled into artifacts."""
        for obj, method in self.wrapped:
            if method in vars(obj):
                delattr(obj, method)
        self.wrapped.clear()


@dataclass
class PipelineRun:
    """One pass through the pipeline: stage seconds, digests, the world."""

    config: SimulationConfig
    stages: dict  # stage name -> wall seconds, reference samples excluded
    normalized: dict  # stage name -> seconds normalized by host speed
    world_digest: str
    dataset_digest: str
    report_digest: str
    dataset: object
    artifact_bytes: int
    perf: dict
    winning_slots: int  # slots a builder's bid won
    reference_s: float  # time spent sampling the host-speed reference
    tracer: Tracer | None = None
    wall_s: float = 0.0


def build_timed(config: SimulationConfig, repeats: int) -> tuple[float, float, object]:
    """Median ``build_world`` seconds over ``repeats`` builds, raw and
    normalized, and the last world."""
    raw, normalized, world = [], [], None
    for _ in range(repeats):
        if world is not None:
            world = None
            gc.collect()  # free the previous world before the next build
        speed = HostSpeed()
        speed.sample(STAGE_SAMPLES)
        start = perf_counter()
        world = build_world(config)
        raw.append(perf_counter() - start)
        normalized.append(raw[-1] * speed.scale())
    return statistics.median(raw), statistics.median(normalized), world


def simulate(world) -> tuple[float, float, float]:
    """``World.run()``: wall seconds, normalized seconds, reference seconds.

    The host-speed reference is sampled before each slot's auction.  The
    work between two samples is normalized by the median of the samples
    around it (``NEIGHBOURS`` on each side), since the host's speed
    changes within seconds.
    """
    speed = HostSpeed()
    auction = world.auction
    original = auction.run
    entered, resumed = [], []

    def run(*args, **kwargs):
        entered.append(perf_counter())
        speed.sample()
        resumed.append(perf_counter())
        return original(*args, **kwargs)

    auction.run = run
    try:
        start = perf_counter()
        world.run()
        end = perf_counter()
    finally:
        vars(auction).pop("run", None)  # also drops a tracer's wrapper
    chunks = [b - a for a, b in zip([start, *resumed], [*entered, end])]
    samples = speed.samples
    normalized = 0.0
    for index, chunk in enumerate(chunks):
        at = max(index - 1, 0)  # the sample just before this chunk
        nearby = samples[max(at - NEIGHBOURS, 0):at + NEIGHBOURS + 1]
        normalized += chunk * hostspeed.scale(nearby)
    return sum(chunks), normalized, sum(samples)


def _dataset_stage(config, world, artifact_dir: Path, stages: dict, normalized: dict):
    """collect → save → load → report; stage seconds go into the dicts."""
    speed = HostSpeed()
    spent = 0.0
    dataset = loaded = text = None
    for name in DATASET_STAGES:
        spent += speed.sample(STAGE_SAMPLES)
        start = perf_counter()
        if name == "collect":
            dataset = collect_study_dataset(world)
        elif name == "save":
            save_study_artifact(config, dataset, artifact_dir)
        elif name == "load":
            loaded = load_study_artifact(config, artifact_dir)
            if loaded is None:
                raise RuntimeError("the artifact just saved did not load back")
        else:
            text = report(config, loaded)
        stages[name] = perf_counter() - start
    scale = speed.scale()
    for name in DATASET_STAGES:
        normalized[name] = stages[name] * scale
    return dataset, loaded, text, spent


def run_pipeline(
    config: SimulationConfig,
    artifact_dir: Path,
    *,
    setup_repeats: int = 1,
    trace: bool = False,
) -> PipelineRun:
    """Build, simulate, then collect, save, load and report one world.

    ``setup_repeats`` builds are timed and their median kept.
    """
    started = perf_counter()
    stages: dict[str, float] = {}
    normalized: dict[str, float] = {}
    build_began = perf_counter()
    stages["setup"], normalized["setup"], world = build_timed(config, setup_repeats)
    # Only the last build is the pipeline's; earlier ones only time set-up.
    stages["setup_repeats"] = perf_counter() - build_began - stages["setup"]
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.attach(world)
    stages["simulate"], normalized["simulate"], reference_s = simulate(world)
    if tracer is not None:
        tracer.detach()

    dataset, loaded, text, spent = _dataset_stage(
        config, world, artifact_dir, stages, normalized
    )
    reference_s += spent
    normalized["dataset"] = sum(normalized[name] for name in DATASET_STAGES)
    stages["dataset"] = sum(stages[name] for name in DATASET_STAGES)
    wall = perf_counter() - started

    run = PipelineRun(
        config=config,
        stages=stages,
        normalized=normalized,
        world_digest=world.digest(),
        dataset_digest=loaded.content_digest(),
        report_digest=hashlib.sha256(text.encode()).hexdigest(),
        dataset=loaded,
        artifact_bytes=sum(path.stat().st_size for path in artifact_dir.iterdir()),
        perf=world.perf.snapshot(),
        winning_slots=sum(
            record.winning_builder is not None for record in world.slot_records
        ),
        reference_s=reference_s,
        tracer=tracer,
        wall_s=wall,
    )
    if dataset.content_digest() != run.dataset_digest:
        raise RuntimeError("artifact round trip changed the dataset digest")
    return run


def layer_metrics(run: PipelineRun) -> tuple[dict, list]:
    """Per-layer metrics of a traced run, and its additive self-time table.

    The table's rows are self times: each row excludes the rows nested in
    it, so the rows sum to the traced pipeline's wall time, with the
    remainder in an explicit ``unattributed`` row.
    """
    tracer = run.tracer
    timers = run.perf["timers_seconds"]
    counters = run.perf["counters"]
    sec, calls, counts = tracer.seconds, tracer.calls, tracer.counts
    regime = run.config.regime

    auction = sec["core.auction"]
    children = sum(
        sec[name]
        for name in (
            "core.builder.build",
            "core.relay.receive",
            "core.mev_boost.select",
            "core.proposer.local_build",
        )
    )
    auction_self = auction - children
    workload = timers.get("workload", 0.0)
    screening = timers.get("screening", 0.0)
    hits = counters.get("exec_cache_hits", 0)
    misses = counters.get("exec_cache_misses", 0)
    builds = calls["core.builder.build"]

    metrics = {
        "simulation.setup_s": run.stages["setup"],
        "simulation.workload_s": workload,
        "mempool.broadcast_calls": calls["mempool.broadcast"],
        "mempool.broadcast_s": sec["mempool.broadcast"],
        "mev.find_bundles_s": sec["mev.find_bundles"],
        "mev.bundles_found": counts["mev.find_bundles"],
        "core.builder.build_s": sec["core.builder.build"],
        "core.builder.build_calls": builds,
        "core.builder.win_ratio": run.winning_slots / builds if builds else 0.0,
        "chain.exec_cache.hits": hits,
        "chain.exec_cache.misses": misses,
        "chain.exec_cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "core.relay.receive_s": sec["core.relay.receive"],
        "core.relay.receive_calls": calls["core.relay.receive"],
        "core.relay.accept_ratio": (
            counts["core.relay.receive"] / calls["core.relay.receive"]
            if calls["core.relay.receive"]
            else 0.0
        ),
        "core.mev_boost.select_s": sec["core.mev_boost.select"],
        "core.proposer.local_build_s": sec["core.proposer.local_build"],
        "core.proposer.local_build_calls": calls["core.proposer.local_build"],
        "core.epbs.self_s": auction_self if regime == "epbs" else 0.0,
        "core.auction_s": auction_self if regime != "epbs" else 0.0,
        "simulation.unattributed_s": (
            run.stages["simulate"] - workload - sec["mev.find_bundles"] - auction
        ),
        "datasets.collect_s": run.stages["collect"],
        "sanctions.screen_s": screening,
        "perf.artifacts.save_s": run.stages["save"],
        "perf.artifacts.load_s": run.stages["load"],
        "perf.artifacts.bytes": run.artifact_bytes,
        "analysis.report_s": run.stages["report"],
    }
    rows = [
        ("simulation.setup", run.stages["setup"] + run.stages["setup_repeats"]),
        ("simulation.workload (self)", workload - sec["mempool.broadcast"]),
        ("mempool.broadcast", sec["mempool.broadcast"]),
        ("mev.find_bundles", sec["mev.find_bundles"]),
        ("core.builder.build", sec["core.builder.build"]),
        ("core.relay.receive", sec["core.relay.receive"]),
        ("core.mev_boost.select", sec["core.mev_boost.select"]),
        ("core.proposer.local_build", sec["core.proposer.local_build"]),
        ("core.epbs (self)" if regime == "epbs" else "core.auction (self)", auction_self),
        ("simulation.unattributed", metrics["simulation.unattributed_s"]),
        ("datasets.collect (self)", run.stages["collect"] - screening),
        ("sanctions.screen", screening),
        ("perf.artifacts.save", run.stages["save"]),
        ("perf.artifacts.load", run.stages["load"]),
        ("analysis.report", run.stages["report"]),
        ("host-speed reference", run.reference_s),
    ]
    rows.append(("unattributed", run.wall_s - sum(value for _, value in rows)))
    metrics["unattributed_s"] = rows[-1][1]
    return metrics, rows
