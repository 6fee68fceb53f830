"""Quickstart: simulate a month of post-merge Ethereum with PBS and
measure it with the paper's pipeline.

Run:  python examples/quickstart.py
"""

from repro.analysis import (
    daily_pbs_share,
    daily_block_value,
    daily_user_payment_shares,
)
from repro.analysis.report import render_series
from repro.datasets import collect_study_dataset
from repro.datasets.columnar import exact_sum
from repro.simulation import SimulationConfig, build_world
from repro.types import to_ether


def main() -> None:
    # A month from the merge, 12 blocks per simulated day.
    config = SimulationConfig(
        seed=42,
        num_days=30,
        blocks_per_day=12,
        num_validators=300,
        num_users=250,
    )
    print("building world (30 days, ~360 blocks)...")
    world = build_world(config).run()
    dataset = collect_study_dataset(world)

    print(f"\nchain: {len(world.chain)} blocks, "
          f"{world.chain.total_transactions()} transactions")
    print(f"missed slots: {world.beacon.missed_count()}")

    print("\n-- PBS adoption (paper Fig. 4) --")
    print(render_series(daily_pbs_share(dataset)))

    print("\n-- block value, PBS vs non-PBS (paper Fig. 9) --")
    pbs, non_pbs = daily_block_value(dataset)
    print(render_series(pbs))
    print(render_series(non_pbs))

    print("\n-- user payment decomposition (paper Fig. 3) --")
    for series in daily_user_payment_shares(dataset):
        print(render_series(series))

    total_value = exact_sum(dataset.table.block_value_wei)
    print(f"\ntotal user-generated block value: {to_ether(total_value):.2f} ETH")
    print("done — see examples/ for deeper studies.")


if __name__ == "__main__":
    main()
