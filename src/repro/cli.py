"""Command-line interface.

Drives the whole study from a terminal:

* ``python -m repro simulate`` — build a world, collect the dataset,
  optionally export CSVs, and print a summary;
* ``python -m repro report`` — build a world and print selected paper
  figures/tables;
* ``python -m repro inventory`` — print the Table 1 dataset inventory;
* ``python -m repro conformance`` — run the fault-injection scenario
  matrix and the differential replay matrix (see DESIGN.md §7);
* ``python -m repro serve`` — boot the async relay-API + analysis query
  service over the artifact cache (see DESIGN.md §8).
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Sequence

from .analysis.adoption import daily_pbs_share
from .analysis.blocks import daily_block_value, daily_private_tx_share
from .analysis.builders import daily_builder_shares
from .analysis.censorship import (
    daily_compliant_relay_share,
    daily_sanctioned_share,
)
from .analysis.concentration import daily_hhi_series
from .analysis.mev import daily_mev_per_block
from .analysis.relays import daily_relay_shares, pbs_totals_row, relay_trust_table
from .analysis.report import render_series, render_table
from .analysis.rewards import daily_user_payment_shares
from .datasets.collector import collect_study_dataset
from .datasets.storage import export_study_dataset
from .errors import ConfigError
from .simulation.config import SimulationConfig
from .simulation.world import build_world

REPORTS = (
    "fig03", "fig04", "fig06", "fig09", "fig14", "fig15", "fig17", "fig18",
    "table4",
)


def _add_world_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=7, help="world seed")
    parser.add_argument(
        "--days", type=int, default=30,
        help="study days to simulate (1-198, day 0 = the merge)",
    )
    parser.add_argument(
        "--blocks-per-day", type=int, default=12, dest="blocks_per_day",
        help="simulated block opportunities per day",
    )
    parser.add_argument(
        "--validators", type=int, default=300, help="validator count"
    )
    parser.add_argument(
        "--regime", choices=("mev_boost", "epbs", "local"),
        default="mev_boost", dest="regime",
        help="block-production regime: out-of-protocol MEV-Boost relays "
             "(default), enshrined PBS with staked builders, or local "
             "building only",
    )


#: The SimulationConfig fields the world flags set, by flag.
_FLAG_FOR_FIELD = {
    "seed": "--seed",
    "num_days": "--days",
    "blocks_per_day": "--blocks-per-day",
    "num_validators": "--validators",
}


def _world_config(args: argparse.Namespace, **fields) -> SimulationConfig:
    """The config the world flags describe.

    A flag value the config rejects is a usage error: argparse prints it
    under the flag's name and exits with status 2.
    """
    try:
        return SimulationConfig(
            seed=args.seed,
            num_days=args.days,
            blocks_per_day=args.blocks_per_day,
            num_validators=args.validators,
            **fields,
        )
    except ConfigError as exc:
        if exc.field not in _FLAG_FOR_FIELD:
            raise
        args.parser.error(f"argument {_FLAG_FOR_FIELD[exc.field]}: {exc}")


def tcp_port(text: str) -> int:
    """``--port``: a TCP port; a bad one fails here, before any loading."""
    port = int(text)
    if not 0 <= port <= 65535:
        raise argparse.ArgumentTypeError(
            f"port must be between 0 and 65535, got {port}"
        )
    return port


def worker_count(text: str) -> int:
    """``--workers``: at least one serving process."""
    workers = int(text)
    if workers < 1:
        raise argparse.ArgumentTypeError(
            f"workers must be at least 1, got {workers}"
        )
    return workers


def _build_dataset(args: argparse.Namespace):
    config = _world_config(args, regime=args.regime)
    print(
        f"simulating {config.num_days} days x {config.blocks_per_day} "
        f"blocks/day (seed {config.seed})...",
        file=sys.stderr,
    )
    world = build_world(config).run()
    return world, collect_study_dataset(world)


def cmd_simulate(args: argparse.Namespace) -> int:
    world, dataset = _build_dataset(args)
    table = dataset.table
    print(f"blocks: {len(table)} ({int(table.is_pbs.sum())} PBS)")
    print(f"transactions: {world.chain.total_transactions()}")
    print(f"missed slots: {world.beacon.missed_count()}")
    print(render_series(daily_pbs_share(dataset)))
    if args.export:
        written = export_study_dataset(dataset, args.export)
        for name, path in sorted(written.items()):
            print(f"wrote {name}: {path}")
    return 0


def cmd_inventory(args: argparse.Namespace) -> int:
    _, dataset = _build_dataset(args)
    inventory = dataset.inventory
    rows = [
        ["blocks", inventory.blocks],
        ["transactions", inventory.transactions],
        ["logs", inventory.logs],
        ["traces", inventory.traces],
        ["mempool arrival times", inventory.mempool_arrival_times],
        ["relay data entries", inventory.relay_data_entries],
        ["OFAC addresses", inventory.ofac_addresses],
    ]
    for source, count in sorted(inventory.mev_labels_by_source.items()):
        rows.append([f"MEV labels ({source})", count])
    rows.append(["MEV labels (union)", inventory.mev_labels_union])
    print(render_table(["dataset", "entries"], rows, title="Table 1"))
    return 0


def _report_fig03(dataset) -> None:
    for series in daily_user_payment_shares(dataset):
        print(render_series(series))


def _report_fig04(dataset) -> None:
    print(render_series(daily_pbs_share(dataset)))


def _report_fig06(dataset) -> None:
    print(render_series(daily_hhi_series("relay HHI", daily_relay_shares(dataset))))
    print(
        render_series(
            daily_hhi_series("builder HHI", daily_builder_shares(dataset))
        )
    )


def _report_pair(maker) -> Callable[[object], None]:
    def _run(dataset) -> None:
        pbs, non_pbs = maker(dataset)
        print(render_series(pbs))
        print(render_series(non_pbs))

    return _run


def _report_fig17(dataset) -> None:
    print(render_series(daily_compliant_relay_share(dataset)))


def _report_table4(dataset) -> None:
    rows = relay_trust_table(dataset)
    table = [
        [row.relay, round(row.delivered_value_eth, 3),
         round(row.promised_value_eth, 3),
         round(row.share_of_value_delivered, 5),
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
    print(
        render_table(
            ["relay", "delivered", "promised", "share", "overpromised", "n"],
            table,
            title="Table 4 (left)",
        )
    )


_REPORT_RUNNERS: dict[str, Callable[[object], None]] = {
    "fig03": _report_fig03,
    "fig04": _report_fig04,
    "fig06": _report_fig06,
    "fig09": _report_pair(daily_block_value),
    "fig14": _report_pair(daily_private_tx_share),
    "fig15": _report_pair(daily_mev_per_block),
    "fig17": _report_fig17,
    "fig18": _report_pair(daily_sanctioned_share),
    "table4": _report_table4,
}


def cmd_report(args: argparse.Namespace) -> int:
    if args.regime_comparison:
        from .analysis.regimes import compare_regimes, render_regime_comparison

        base = _world_config(args, regime=args.regime)
        print(
            f"running {base.num_days} days x {base.blocks_per_day} "
            f"blocks/day (seed {base.seed}) under all three regimes...",
            file=sys.stderr,
        )
        print(render_regime_comparison(compare_regimes(base)))
        return 0
    wanted = args.only.split(",") if args.only else list(REPORTS)
    unknown = [name for name in wanted if name not in _REPORT_RUNNERS]
    if unknown:
        print(f"unknown reports: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(sorted(_REPORT_RUNNERS))}", file=sys.stderr)
        return 2
    _, dataset = _build_dataset(args)
    for name in wanted:
        print(f"\n== {name} ==")
        _REPORT_RUNNERS[name](dataset)
    return 0


def cmd_conformance(args: argparse.Namespace) -> int:
    import tempfile
    from pathlib import Path

    from .simulation.config import small_test_config
    from .testing.differential import (
        DEFAULT_CASES,
        run_replay_matrix,
        sharded_cases,
    )
    from .testing.scenarios import (
        ScenarioRunner,
        default_scenarios,
        scenarios_from_yaml,
    )

    scenarios = (
        scenarios_from_yaml(Path(args.scenarios))
        if args.scenarios
        else default_scenarios()
    )
    runner = ScenarioRunner()
    failures = 0
    for scenario in scenarios:
        result = runner.run(scenario)
        problems = result.problems()
        status = "ok" if not problems else "FAIL"
        detected = ", ".join(
            f"{kind}@{target}={result.perturbed.anomalies[(kind, target)].metric:g}"
            for kind, target in sorted(result.scenario.expected_keys())
            if (kind, target) in result.perturbed.anomalies
        )
        print(f"[{status:4s}] {scenario.name}  ({detected or 'nothing detected'})")
        for problem in problems:
            print(f"       - {problem}")
        failures += bool(problems)

    if not args.skip_replay:
        print("differential replay matrix...", file=sys.stderr)
        with tempfile.TemporaryDirectory() as tmp:
            report = run_replay_matrix(
                small_test_config(),
                cases=DEFAULT_CASES + sharded_cases(segment_days=4),
                artifact_dir=Path(tmp),
            )
        for case in report.results:
            print(
                f"[ok  ] replay {case.case.name}: "
                f"world={case.world_digest[:12]} "
                f"dataset={case.dataset_digest[:12]}"
            )
        problems = report.problems()
        for problem in problems:
            print(f"[FAIL] replay: {problem}")
        failures += bool(problems)

    print(
        f"conformance: {'PASS' if not failures else f'{failures} FAILURE(S)'}"
    )
    return 1 if failures else 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    from pathlib import Path

    from .perf.artifacts import load_study_artifact, save_study_artifact
    from .serve.http import run_server

    config = _world_config(args)
    cache_dir = Path(args.artifact_dir) if args.artifact_dir else None
    dataset = None
    if not args.no_artifact_cache:
        dataset = load_study_artifact(config, cache_dir)
        if dataset is not None:
            print(
                f"loaded artifact for config {config.num_days}d x "
                f"{config.blocks_per_day} blocks/day (mmap warm load)",
                file=sys.stderr,
            )
    if dataset is None:
        print(
            f"simulating {config.num_days} days x {config.blocks_per_day} "
            f"blocks/day (seed {config.seed})...",
            file=sys.stderr,
        )
        world = build_world(config).run()
        dataset = collect_study_dataset(world)
        if not args.no_artifact_cache:
            save_study_artifact(config, dataset, cache_dir)

    relays = ", ".join(sorted(dataset.relays)) or "(no relays)"

    if args.workers > 1:
        from .serve.workers import serve_pool

        def announce_pool(url: str, workers: int) -> None:
            print(f"serving relays: {relays}", file=sys.stderr)
            # The machine-readable readiness line load generators wait
            # for — emitted only once every worker socket is accepting.
            print(f"READY {url} workers={workers}", flush=True)

        return serve_pool(
            dataset,
            host=args.host,
            port=args.port,
            workers=args.workers,
            announce=announce_pool,
        )

    def announce(server) -> None:
        print(f"serving relays: {relays}", file=sys.stderr)
        # The machine-readable readiness line load generators wait for.
        print(f"READY {server.url} workers=1", flush=True)

    try:
        asyncio.run(
            run_server(
                dataset, host=args.host, port=args.port, ready_message=announce
            )
        )
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Ethereum's Proposer-Builder Separation: "
            "Promises and Realities' (IMC 2023)"
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser(
        "simulate", help="build a world and summarize/export the dataset"
    )
    _add_world_arguments(simulate)
    simulate.add_argument(
        "--export", default=None, help="directory for CSV/JSON export"
    )
    simulate.set_defaults(handler=cmd_simulate, parser=simulate)

    inventory = subparsers.add_parser(
        "inventory", help="print the Table 1 dataset inventory"
    )
    _add_world_arguments(inventory)
    inventory.set_defaults(handler=cmd_inventory, parser=inventory)

    report = subparsers.add_parser(
        "report", help="print selected paper figures/tables"
    )
    _add_world_arguments(report)
    report.add_argument(
        "--only",
        default=None,
        help=f"comma-separated report names (default: {','.join(REPORTS)})",
    )
    report.add_argument(
        "--regime-comparison",
        action="store_true",
        dest="regime_comparison",
        help="instead of paper figures, run the same seeded world under "
             "mev_boost, epbs and local and print the comparison table",
    )
    report.set_defaults(handler=cmd_report, parser=report)

    conformance = subparsers.add_parser(
        "conformance",
        help="run the fault-injection scenarios and the replay matrix",
    )
    conformance.add_argument(
        "--scenarios",
        default=None,
        help="YAML scenario file (default: the built-in nine-scenario "
             "matrix, incl. the three ePBS faults)",
    )
    conformance.add_argument(
        "--skip-replay",
        action="store_true",
        help="skip the differential replay matrix",
    )
    conformance.set_defaults(handler=cmd_conformance)

    serve = subparsers.add_parser(
        "serve",
        help="serve the relay data API + analysis endpoints over HTTP",
    )
    serve.add_argument("--seed", type=int, default=7, help="world seed")
    serve.add_argument(
        "--days", type=int, default=198,
        help="study days (default: the full 198-day window)",
    )
    serve.add_argument(
        "--blocks-per-day", type=int, default=40, dest="blocks_per_day",
        help="simulated block opportunities per day",
    )
    serve.add_argument(
        "--validators", type=int, default=1200, help="validator count"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=tcp_port, default=8547, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--workers", type=worker_count, default=1,
        help="pre-forked serving processes sharing the port via "
             "SO_REUSEPORT (1 = single-process asyncio, the default)",
    )
    serve.add_argument(
        "--artifact-dir", default=None,
        help="artifact cache directory (default: benchmarks/.artifact_cache)",
    )
    serve.add_argument(
        "--no-artifact-cache", action="store_true",
        help="always simulate; do not read or write the artifact cache",
    )
    serve.set_defaults(handler=cmd_serve, parser=serve)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
