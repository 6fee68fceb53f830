"""Export collected datasets to CSV/JSON.

Mirrors the paper's published aggregate dataset: one CSV of per-block
observations, one of relay delivered-payload records, one of MEV labels,
and a JSON inventory (Table 1).
"""

from __future__ import annotations

import csv
import json
import pathlib
from dataclasses import asdict

from ..types import to_ether
from .collector import StudyDataset

BLOCKS_CSV = "blocks.csv"
DELIVERIES_CSV = "relay_deliveries.csv"
MEV_CSV = "mev_labels.csv"
INVENTORY_JSON = "inventory.json"

_BLOCK_FIELDS = (
    "number", "block_hash", "slot", "date", "proposer_entity",
    "fee_recipient", "extra_data", "gas_used", "base_fee_per_gas",
    "burned_eth", "priority_fees_eth", "direct_transfers_eth",
    "block_value_eth", "builder_payment_eth", "proposer_profit_eth",
    "is_pbs", "relays", "tx_count", "private_tx_count", "sanctioned",
)


def export_study_dataset(dataset: StudyDataset, directory: str | pathlib.Path) -> dict[str, str]:
    """Write the aggregate dataset; returns the written file paths."""
    out = pathlib.Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    written: dict[str, str] = {}

    blocks_path = out / BLOCKS_CSV
    with blocks_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_BLOCK_FIELDS)
        for obs in dataset.table.to_observations():
            writer.writerow(
                (
                    obs.number,
                    obs.block_hash,
                    obs.slot,
                    obs.date.isoformat(),
                    obs.proposer_entity,
                    obs.fee_recipient,
                    obs.extra_data,
                    obs.gas_used,
                    obs.base_fee_per_gas,
                    to_ether(obs.burned_wei),
                    to_ether(obs.priority_fees_wei),
                    to_ether(obs.direct_transfers_wei),
                    to_ether(obs.block_value_wei),
                    to_ether(obs.builder_payment_wei),
                    to_ether(obs.proposer_profit_wei),
                    int(obs.is_pbs),
                    "|".join(sorted(obs.claimed_by_relay)),
                    obs.tx_count,
                    obs.private_tx_count,
                    int(obs.is_sanctioned),
                )
            )
    written[BLOCKS_CSV] = str(blocks_path)

    deliveries_path = out / DELIVERIES_CSV
    with deliveries_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            ("relay", "slot", "block_number", "block_hash", "builder_pubkey",
             "value_claimed_eth")
        )
        for name, relay in sorted(dataset.relays.items()):
            for payload in relay.data.get_payloads_delivered():
                writer.writerow(
                    (
                        name,
                        payload.slot,
                        payload.block_number,
                        payload.block_hash,
                        payload.builder_pubkey,
                        to_ether(payload.value_claimed_wei),
                    )
                )
    written[DELIVERIES_CSV] = str(deliveries_path)

    mev_path = out / MEV_CSV
    with mev_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(("tx_hash", "block_number", "kind", "profit_eth", "source"))
        for label in dataset.mev.all_labels():
            writer.writerow(
                (label.tx_hash, label.block_number, label.kind,
                 label.profit_eth, label.source)
            )
    written[MEV_CSV] = str(mev_path)

    inventory_path = out / INVENTORY_JSON
    inventory_path.write_text(
        json.dumps(asdict(dataset.inventory), indent=2),
        encoding="utf-8",
    )
    written[INVENTORY_JSON] = str(inventory_path)
    return written
