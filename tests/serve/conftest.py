"""Shared fixtures for the serve-layer suites.

``golden_dataset`` is hand-built — no simulation — so the pinned JSON
fixtures stay stable across simulator changes: they pin the *serving*
schema, not the world model.  Values are chosen to exercise the joins
(multi-relay blocks, losing submissions referencing unknown blocks,
non-PBS blocks, a sanctioned block, two calendar days).
"""

from __future__ import annotations

import datetime
from types import SimpleNamespace

import pytest

from repro.core.relay_api import (
    BuilderSubmissionRecord,
    DeliveredPayload,
    RelayDataStore,
    ValidatorRegistration,
)
from repro.datasets.columnar import BlockTable
from repro.datasets.records import BlockObservation, DatasetInventory

DAY1 = datetime.date(2022, 9, 15)
DAY2 = datetime.date(2022, 9, 16)

H100 = "0x" + "aa" * 32
H101 = "0x" + "bb" * 32
H102 = "0x" + "cc" * 32
LOSING_HASH = "0x" + "c2" * 32
REJECTED_HASH = "0x" + "c3" * 32

BUILDER_1 = "0x" + "c1" * 48
BUILDER_2 = "0x" + "d2" * 48
PROPOSER_1 = "0x" + "e1" * 48
PROPOSER_2 = "0x" + "e2" * 48
PROPOSER_3 = "0x" + "e3" * 48

FEE_1 = "0x" + "01" * 20
FEE_2 = "0x" + "02" * 20
FEE_3 = "0x" + "03" * 20
BUILDER_ADDR = "0x" + "f1" * 20


def _observation(**overrides) -> BlockObservation:
    base = dict(
        number=100,
        block_hash=H100,
        slot=8000,
        date=DAY1,
        proposer_index=1,
        proposer_entity="Lido",
        proposer_fee_recipient=FEE_1,
        fee_recipient=BUILDER_ADDR,
        extra_data="golden builder",
        gas_used=21_000_000,
        gas_limit=30_000_000,
        base_fee_per_gas=10_000_000_000,
        burned_wei=200_000_000_000_000_000,
        priority_fees_wei=100_000_000_000_000_000,
        direct_transfers_wei=50_000_000_000_000_000,
        tx_count=150,
        private_tx_count=3,
        builder_payment_wei=120_000_000_000_000_000,
        claimed_by_relay={"flashbots": 130_000_000_000_000_000},
        builder_pubkey=BUILDER_1,
        tx_value_contribution={},
        private_tx_hashes=frozenset(),
        sanctioned_tx_hashes=(),
    )
    base.update(overrides)
    return BlockObservation(**base)


def golden_observations() -> list[BlockObservation]:
    return [
        _observation(),
        _observation(
            number=101,
            block_hash=H101,
            slot=8001,
            date=DAY2,
            proposer_index=2,
            proposer_entity="Coinbase",
            proposer_fee_recipient=FEE_2,
            gas_used=14_000_000,
            burned_wei=150_000_000_000_000_000,
            priority_fees_wei=80_000_000_000_000_000,
            direct_transfers_wei=0,
            tx_count=90,
            private_tx_count=0,
            builder_payment_wei=70_000_000_000_000_000,
            claimed_by_relay={
                "aestus": 75_000_000_000_000_000,
                "flashbots": 75_000_000_000_000_000,
            },
            builder_pubkey=BUILDER_2,
            sanctioned_tx_hashes=("0x" + "dd" * 32,),
        ),
        _observation(
            number=102,
            block_hash=H102,
            slot=8002,
            date=DAY2,
            proposer_index=3,
            proposer_entity="solo",
            proposer_fee_recipient=FEE_3,
            fee_recipient=FEE_3,
            extra_data="",
            gas_used=9_000_000,
            burned_wei=90_000_000_000_000_000,
            priority_fees_wei=30_000_000_000_000_000,
            direct_transfers_wei=10_000_000_000_000_000,
            tx_count=40,
            private_tx_count=0,
            builder_payment_wei=0,
            claimed_by_relay={},
            builder_pubkey=None,
        ),
    ]


def golden_stores() -> dict[str, RelayDataStore]:
    flashbots = RelayDataStore("flashbots")
    flashbots.record_registration(
        ValidatorRegistration(
            relay="flashbots",
            validator_pubkey=PROPOSER_1,
            fee_recipient=FEE_1,
            registered_slot=7990,
        )
    )
    flashbots.record_registration(
        ValidatorRegistration(
            relay="flashbots",
            validator_pubkey=PROPOSER_2,
            fee_recipient=FEE_2,
            registered_slot=7991,
        )
    )
    flashbots.record_submission(
        BuilderSubmissionRecord(
            relay="flashbots",
            slot=8000,
            block_number=100,
            block_hash=H100,
            builder_pubkey=BUILDER_1,
            value_claimed_wei=130_000_000_000_000_000,
            accepted=True,
        )
    )
    flashbots.record_submission(
        BuilderSubmissionRecord(
            relay="flashbots",
            slot=8000,
            block_number=100,
            block_hash=LOSING_HASH,
            builder_pubkey=BUILDER_2,
            value_claimed_wei=110_000_000_000_000_000,
            accepted=True,
        )
    )
    flashbots.record_submission(
        BuilderSubmissionRecord(
            relay="flashbots",
            slot=8000,
            block_number=100,
            block_hash=REJECTED_HASH,
            builder_pubkey=BUILDER_2,
            value_claimed_wei=500_000_000_000_000_000,
            accepted=False,
            rejection_reason="bid above validated payment",
        )
    )
    flashbots.record_delivery(
        DeliveredPayload(
            relay="flashbots",
            slot=8000,
            block_number=100,
            block_hash=H100,
            builder_pubkey=BUILDER_1,
            proposer_pubkey=PROPOSER_1,
            proposer_fee_recipient=FEE_1,
            value_claimed_wei=130_000_000_000_000_000,
        )
    )
    flashbots.record_delivery(
        DeliveredPayload(
            relay="flashbots",
            slot=8001,
            block_number=101,
            block_hash=H101,
            builder_pubkey=BUILDER_2,
            proposer_pubkey=PROPOSER_2,
            proposer_fee_recipient=FEE_2,
            value_claimed_wei=75_000_000_000_000_000,
        )
    )

    aestus = RelayDataStore("aestus")
    aestus.record_registration(
        ValidatorRegistration(
            relay="aestus",
            validator_pubkey=PROPOSER_2,
            fee_recipient=FEE_2,
            registered_slot=7995,
        )
    )
    aestus.record_submission(
        BuilderSubmissionRecord(
            relay="aestus",
            slot=8001,
            block_number=101,
            block_hash=H101,
            builder_pubkey=BUILDER_2,
            value_claimed_wei=75_000_000_000_000_000,
            accepted=True,
        )
    )
    aestus.record_delivery(
        DeliveredPayload(
            relay="aestus",
            slot=8001,
            block_number=101,
            block_hash=H101,
            builder_pubkey=BUILDER_2,
            proposer_pubkey=PROPOSER_2,
            proposer_fee_recipient=FEE_2,
            value_claimed_wei=75_000_000_000_000_000,
        )
    )
    return {"flashbots": flashbots, "aestus": aestus}


def build_golden_dataset() -> SimpleNamespace:
    observations = golden_observations()
    stores = golden_stores()
    relays = {
        name: SimpleNamespace(data=store, endpoint=f"https://{name}.example")
        for name, store in stores.items()
    }
    inventory = DatasetInventory(
        blocks=3,
        transactions=280,
        logs=900,
        traces=1200,
        mev_labels_by_source={"golden": 0},
        mev_labels_union=0,
        mempool_arrival_times=280,
        relay_data_entries=sum(s.total_entries() for s in stores.values()),
        ofac_addresses=2,
    )
    return SimpleNamespace(
        table=BlockTable.from_observations(observations),
        relays=relays,
        compliant_relays=frozenset({"flashbots"}),
        inventory=inventory,
    )


@pytest.fixture(scope="module")
def golden_dataset():
    return build_golden_dataset()


@pytest.fixture(scope="module", params=["wire-cache", "uncached"])
def golden_service(golden_dataset, request):
    """One long-lived service, and a fresh service per request.

    Every conformance test runs twice: against the production service,
    whose static routes answer from their memo once rendered, and
    against a new ``QueryService`` for each request, so every response
    is a cold render — pinning that both produce identical bytes.
    """
    from repro.serve.service import QueryService

    if request.param == "uncached":
        return SimpleNamespace(
            handle=lambda path, params: QueryService(golden_dataset).handle(
                path, params
            )
        )
    return QueryService(golden_dataset)
