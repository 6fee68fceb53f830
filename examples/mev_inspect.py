"""MEV inspection: recover sandwiches, arbitrage and liquidations from
chain evidence alone (paper Section 3.1 / 5.4 methodology).

Runs the log-based detectors (the role of EigenPhi / ZeroMev / the
Weintraub scripts) over a simulated chain, prints the attacks found in a
sample of blocks, and shows the three-source union logic.

Run:  python examples/mev_inspect.py
"""

from repro.analysis.report import render_table
from repro.mev.detection import detect_block_mev
from repro.mev.labels import MevDataset, build_default_sources
from repro.simulation import SimulationConfig, build_world
from repro.types import to_ether


def main() -> None:
    config = SimulationConfig(
        seed=9,
        num_days=14,
        blocks_per_day=12,
        num_validators=240,
        num_users=220,
    )
    print("building world (2 weeks)...")
    world = build_world(config).run()

    # Ground-truth detection over every block.
    dataset = MevDataset(sources=build_default_sources())
    per_block = {}
    for block in world.chain:
        result = world.chain.execution_result(block.block_hash)
        labels = detect_block_mev(block, result.receipts, world.oracle)
        dataset.ingest_block(block, result.receipts, world.oracle)
        if labels:
            per_block[block.number] = labels

    print(f"\nblocks with MEV: {len(per_block)} / {len(world.chain)}")
    print(f"by type: {dataset.count_by_kind()}")
    print(f"per-source label counts (pre-union): {dataset.per_source_counts()}")
    print(f"union size: {len(dataset)}")

    print("\n-- sample attacks --")
    rows = []
    shown = 0
    for number, labels in sorted(per_block.items()):
        for label in labels:
            if label.kind == "sandwich" and label.profit_eth == 0.0:
                continue  # skip the back-run leg in the listing
            rows.append(
                [
                    number,
                    label.kind,
                    label.tx_hash[:16] + "..",
                    f"{label.profit_eth:.4f}",
                ]
            )
            shown += 1
        if shown >= 12:
            break
    print(render_table(["block", "kind", "tx", "profit [ETH]"], rows))

    total_profit = sum(
        label.profit_eth for labels in per_block.values() for label in labels
    )
    print(f"\ntotal detected searcher profit: {total_profit:.3f} ETH")
    print(
        "note: detectors read only swap/liquidation event logs and"
        " transaction order — no simulator internals."
    )


if __name__ == "__main__":
    main()
