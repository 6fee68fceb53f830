"""Enshrined-PBS counterfactual (paper Section 8, "Concluding Discussion").

The paper closes on the roadmap plan to integrate PBS natively, noting the
proposal "is restricted to ensuring that the value is delivered but does
not address the other aspects".  This example runs the same world twice —
once with the historical relay-based scheme, once with in-protocol
(enshrined) PBS — and measures exactly that claim:

* relay trust problems disappear (no relays; delivered == promised), but
* the censorship picture barely moves (builder behaviour is untouched).

Run:  python examples/epbs_counterfactual.py
"""

from repro.analysis.censorship import overall_sanctioned_shares
from repro.analysis.relays import relay_trust_table
from repro.datasets import collect_study_dataset
from repro.simulation import SimulationConfig, build_world
from repro.types import to_ether


def run_variant(regime: str):
    config = SimulationConfig(
        seed=17,
        num_days=50,
        blocks_per_day=12,
        num_validators=320,
        num_users=260,
        regime=regime,
    )
    world = build_world(config).run()
    return world, collect_study_dataset(world)


def main() -> None:
    print("building the historical (relay-based) world...")
    relay_world, relay_dataset = run_variant("mev_boost")
    print("building the enshrined-PBS counterfactual...")
    epbs_world, epbs_dataset = run_variant("epbs")

    print("\n== value delivery ==")
    rows = relay_trust_table(relay_dataset)
    promised = sum(row.promised_value_eth for row in rows)
    delivered = sum(row.delivered_value_eth for row in rows)
    print(
        f"relay-based: {delivered:.2f} of {promised:.2f} ETH promised "
        f"delivered ({delivered / promised:.2%}) across {len(rows)} relays"
    )
    shortfalls = [
        record
        for record in epbs_world.slot_records
        if record.mode == "epbs" and record.payment_wei < record.claimed_wei
    ]
    total_claimed = sum(
        record.claimed_wei
        for record in epbs_world.slot_records
        if record.mode == "epbs"
    )
    print(
        f"enshrined:   every committed bid enforced in-protocol — "
        f"{len(shortfalls)} shortfalls across "
        f"{to_ether(total_claimed):.2f} ETH of commitments"
    )
    print(
        "relay data API entries:"
        f" relay-based={sum(r.data.total_entries() for r in relay_world.relays.values())},"
        f" enshrined={sum(r.data.total_entries() for r in epbs_world.relays.values())}"
        " (the relay role disappears)"
    )

    print("\n== censorship (unchanged by ePBS) ==")
    for label, dataset in (("relay-based", relay_dataset), ("enshrined", epbs_dataset)):
        shares = overall_sanctioned_shares(dataset)
        print(
            f"{label:12s} sanctioned-block share: PBS-path {shares['PBS']:.2%}"
            f" vs local {shares['non-PBS']:.2%}"
        )
    print(
        "\nconclusion: enshrining PBS removes the relay-trust problem the"
        "\npaper documents (Table 4), but censorship outcomes persist —"
        "\nprecisely the limitation the paper's conclusion points out."
    )


if __name__ == "__main__":
    main()
