"""Unit tests for the shared mempool, observers and private order flow."""

import numpy as np
import pytest

from repro.chain.transaction import EthTransfer, TransactionFactory
from repro.errors import NetworkError
from repro.mempool.network import P2PNetwork
from repro.mempool.observer import DEFAULT_OBSERVER_COUNT, ObservationStore
from repro.mempool.pool import SharedMempool
from repro.mempool.private import PrivateOrderFlow
from repro.simulation.config import small_test_config
from repro.simulation.world import build_world
from repro.types import derive_address, gwei

SENDER = derive_address("mp", "sender")


@pytest.fixture
def network():
    return P2PNetwork(np.random.default_rng(9), node_count=16, degree=4)


@pytest.fixture
def factory():
    return TransactionFactory()


def _tx(factory, nonce=0):
    return factory.create(
        SENDER, nonce, [EthTransfer(derive_address("mp", "to"), 1)],
        gwei(20), gwei(1),
    )


class TestSharedMempool:
    def test_broadcast_and_visibility(self, network, factory):
        pool = SharedMempool(network)
        tx = _tx(factory)
        pool.broadcast(tx, origin_node=0, broadcast_time=100.0)
        # Immediately visible at the origin, later elsewhere.
        assert tx.tx_hash in pool
        assert tx.tx_hash in [t.tx_hash for t in pool.visible_to(0, 100.0)]
        far_node = max(
            network.nodes(), key=lambda n: network.propagation_delay(0, n)
        )
        delay = network.propagation_delay(0, far_node)
        assert pool.visible_to(far_node, 100.0 + delay / 2) == []
        assert tx.tx_hash in [
            t.tx_hash for t in pool.visible_to(far_node, 100.0 + delay)
        ]

    def test_double_broadcast_rejected(self, network, factory):
        pool = SharedMempool(network)
        tx = _tx(factory)
        pool.broadcast(tx, 0, 0.0)
        with pytest.raises(NetworkError):
            pool.broadcast(tx, 1, 1.0)

    def test_remove_included(self, network, factory):
        pool = SharedMempool(network)
        tx = _tx(factory)
        pool.broadcast(tx, 0, 0.0)
        assert pool.remove_included([tx.tx_hash]) == 1
        assert tx.tx_hash not in pool
        assert pool.remove_included([tx.tx_hash]) == 0

    def test_expiry(self, network, factory):
        pool = SharedMempool(network, ttl_seconds=10.0)
        old = _tx(factory)
        fresh = _tx(factory, nonce=1)
        pool.broadcast(old, 0, 0.0)
        pool.broadcast(fresh, 0, 95.0)
        assert pool.expire(now=100.0) == 1
        assert old.tx_hash not in pool
        assert fresh.tx_hash in pool

    def test_invalid_ttl(self, network):
        with pytest.raises(NetworkError):
            SharedMempool(network, ttl_seconds=0)


class TestObservationStore:
    def test_observers_record_first_seen(self, network, factory):
        store = ObservationStore.with_default_observers(network)
        pool = SharedMempool(network)
        tx = _tx(factory)
        entry = pool.broadcast(tx, 0, 50.0)
        store.record_broadcast(entry)
        seen = store.first_seen(tx.tx_hash)
        assert seen is not None
        assert seen >= 50.0
        assert store.total_arrival_records() == DEFAULT_OBSERVER_COUNT

    def test_private_tx_never_seen(self, network, factory):
        store = ObservationStore.with_default_observers(network)
        assert store.first_seen(_tx(factory).tx_hash) is None
        assert not store.is_public(_tx(factory).tx_hash)

    def test_is_public_with_cutoff(self, network, factory):
        store = ObservationStore.with_default_observers(network)
        pool = SharedMempool(network)
        tx = _tx(factory)
        store.record_broadcast(pool.broadcast(tx, 0, 50.0))
        first = store.first_seen(tx.tx_hash)
        assert store.is_public(tx.tx_hash, before=first + 1)
        assert not store.is_public(tx.tx_hash, before=first - 0.001)

    def test_total_arrival_records(self, network, factory):
        store = ObservationStore.with_default_observers(network)
        pool = SharedMempool(network)
        for i in range(3):
            store.record_broadcast(pool.broadcast(_tx(factory, nonce=i), 0, 0.0))
        assert store.total_arrival_records() == 3 * DEFAULT_OBSERVER_COUNT

    def test_world_keeps_the_earliest_sighting(self, small_dataset):
        """Over a 12-day world, ``first_seen`` is the earliest monitor's
        sighting, recomputed from the network, and the Table 1 count is
        public transactions times monitors, as when every time was kept."""
        world = build_world(small_test_config())
        store = world.observations
        entries = []
        record = store.record_broadcast
        store.record_broadcast = lambda entry: (entries.append(entry), record(entry))
        world.run()
        monitors = store._observers
        assert len(monitors) == DEFAULT_OBSERVER_COUNT
        assert len({entry.tx.tx_hash for entry in entries}) == len(entries) > 0
        for entry in entries:
            assert store.first_seen(entry.tx.tx_hash) == min(
                entry.broadcast_time
                + world.network.propagation_delay(entry.origin_node, node)
                for node in monitors
            )
        assert store.total_arrival_records() == len(entries) * DEFAULT_OBSERVER_COUNT
        # The same world's inventory count, as it read with all seven
        # times per transaction kept.
        assert small_dataset.inventory.mempool_arrival_times == 22_890
        assert store.total_arrival_records() == 22_890

    def test_bad_observer_nodes_rejected(self, network):
        with pytest.raises(NetworkError):
            ObservationStore(network, [999])
        with pytest.raises(NetworkError):
            ObservationStore(network, [])


class TestPrivateOrderFlow:
    def test_deliver_and_query(self, factory):
        flow = PrivateOrderFlow()
        tx = _tx(factory)
        flow.deliver(tx, ("beaverbuild",), delivered_time=10.0)
        assert [t.tx_hash for t in flow.pending_for("beaverbuild", 11.0)] == [
            tx.tx_hash
        ]
        assert flow.pending_for("beaverbuild", 9.0) == []
        assert flow.pending_for("Flashbots", 11.0) == []

    def test_multiple_recipients(self, factory):
        flow = PrivateOrderFlow()
        tx = _tx(factory)
        flow.deliver(tx, ("a", "b"), 0.0)
        assert flow.pending_for("a", 1.0) and flow.pending_for("b", 1.0)

    def test_no_recipients_rejected(self, factory):
        flow = PrivateOrderFlow()
        with pytest.raises(NetworkError):
            flow.deliver(_tx(factory), (), 0.0)

    def test_double_delivery_rejected(self, factory):
        flow = PrivateOrderFlow()
        tx = _tx(factory)
        flow.deliver(tx, ("a",), 0.0)
        with pytest.raises(NetworkError):
            flow.deliver(tx, ("b",), 1.0)

    def test_remove_and_history(self, factory):
        flow = PrivateOrderFlow()
        tx = _tx(factory)
        flow.deliver(tx, ("a",), 0.0)
        assert flow.remove_included([tx.tx_hash]) == 1
        assert flow.pending_for("a", 1.0) == []
