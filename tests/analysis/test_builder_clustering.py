"""Unit tests for builder clustering over synthetic observations."""

import datetime
import itertools

import pytest

from repro.analysis.builders import cluster_builders
from repro.datasets.collector import StudyDataset
from repro.datasets.columnar import BlockTable
from repro.datasets.records import BlockObservation, DatasetInventory
from repro.mev.labels import MevDataset
from repro.sanctions.ofac import SanctionsList
from repro.types import derive_address, derive_hash, derive_pubkey

DATE = datetime.date(2022, 10, 1)
PROPOSER_FEE = derive_address("bc", "proposer")


def _obs(number, fee_recipient, pubkey=None, payment=10, proposer_fee=None):
    proposer_fee = proposer_fee or PROPOSER_FEE
    return BlockObservation(
        number=number,
        block_hash=derive_hash("bc", number),
        slot=number,
        date=DATE,
        proposer_index=0,
        proposer_entity="Lido",
        proposer_fee_recipient=proposer_fee,
        fee_recipient=fee_recipient,
        extra_data="",
        gas_used=15_000_000,
        gas_limit=30_000_000,
        base_fee_per_gas=10,
        burned_wei=100,
        priority_fees_wei=50,
        direct_transfers_wei=5,
        tx_count=10,
        private_tx_count=1,
        builder_payment_wei=payment,
        claimed_by_relay={"Flashbots": payment} if pubkey else {},
        builder_pubkey=pubkey,
    )


def _dataset(observations):
    return StudyDataset(
        table=BlockTable.from_observations(observations),
        mev=MevDataset(),
        relays={},
        sanctions=SanctionsList(),
        inventory=DatasetInventory(
            blocks=len(observations), transactions=0, logs=0, traces=0,
            mev_labels_by_source={}, mev_labels_union=0,
            mempool_arrival_times=0, relay_data_entries=0, ofac_addresses=0,
        ),
    )


class TestClustering:
    def test_same_address_one_cluster(self):
        address = derive_address("bc", "builder-a")
        k1, k2 = derive_pubkey("bc", 1), derive_pubkey("bc", 2)
        dataset = _dataset([
            _obs(1, address, pubkey=k1),
            _obs(2, address, pubkey=k2),
        ])
        clusters = cluster_builders(dataset)
        assert len(clusters) == 1
        assert clusters[0].pubkeys == {k1, k2}

    def test_shared_pubkey_merges_addresses(self):
        # One operation with two fee recipients, linked by a shared pubkey
        # (the paper's Flashbots row in Table 5).
        addr_a = derive_address("bc", "addr-a")
        addr_b = derive_address("bc", "addr-b")
        addr_c = derive_address("bc", "addr-c")
        key = derive_pubkey("bc", "shared")
        k1, k2 = derive_pubkey("bc", 1), derive_pubkey("bc", 2)
        pair = [
            _obs(1, addr_a, pubkey=key),
            _obs(2, addr_b, pubkey=key),
        ]
        # Merging is transitive: the group seen last (b) bridges the
        # clusters of a (k1) and c (k2), under every assignment of the
        # three addresses, so the bridge is not always the group whose
        # address sorts first.  The per-object legacy_cluster_builders in
        # test_per_object_reference.py merges greedily and would split
        # this case, so it is no oracle here.
        bridges = [
            [
                _obs(1, a, pubkey=k1),
                _obs(2, c, pubkey=k2),
                _obs(3, b, pubkey=k1),
                _obs(4, b, pubkey=k2),
            ]
            for a, b, c in itertools.permutations([addr_a, addr_b, addr_c])
        ]
        for observations, addresses in [(pair, {addr_a, addr_b})] + [
            (bridge, {addr_a, addr_b, addr_c}) for bridge in bridges
        ]:
            clusters = cluster_builders(_dataset(observations))
            assert len(clusters) == 1
            assert clusters[0].addresses == addresses
            assert clusters[0].indices == list(range(len(observations)))

    def test_distinct_builders_stay_apart(self):
        dataset = _dataset([
            _obs(1, derive_address("bc", "x"), pubkey=derive_pubkey("bc", "x")),
            _obs(2, derive_address("bc", "y"), pubkey=derive_pubkey("bc", "y")),
        ])
        assert len(cluster_builders(dataset)) == 2

    def test_proposer_fee_recipient_blocks_cluster_by_pubkey(self):
        # The paper's Builder 3 / 6: fee recipient is the proposer, so the
        # only identity anchor is the relay pubkey.
        key = derive_pubkey("bc", "ghost")
        dataset = _dataset([
            _obs(1, PROPOSER_FEE, pubkey=key, payment=0),
            _obs(2, PROPOSER_FEE, pubkey=key, payment=0),
        ])
        clusters = cluster_builders(dataset)
        assert len(clusters) == 1
        assert clusters[0].addresses == set()
        assert clusters[0].block_count == 2

    def test_non_pbs_blocks_excluded(self):
        observation = _obs(1, PROPOSER_FEE, pubkey=None, payment=0)
        assert not observation.is_pbs
        assert cluster_builders(_dataset([observation])) == []

    def test_sorted_by_block_count(self):
        big = derive_address("bc", "big")
        small = derive_address("bc", "small")
        dataset = _dataset([
            _obs(1, big, pubkey=derive_pubkey("bc", "b1")),
            _obs(2, big, pubkey=derive_pubkey("bc", "b1")),
            _obs(3, small, pubkey=derive_pubkey("bc", "s1")),
        ])
        clusters = cluster_builders(dataset)
        assert clusters[0].addresses == {big}
        assert clusters[0].block_count == 2
