"""Unit tests for the P2P overlay."""

import numpy as np
import pytest

from repro.errors import NetworkError
from repro.mempool.network import P2PNetwork


@pytest.fixture
def network():
    return P2PNetwork(np.random.default_rng(3), node_count=20, degree=4)


class TestTopology:
    def test_node_count(self, network):
        assert len(network.nodes()) == 20

    def test_self_delay_zero(self, network):
        assert network.propagation_delay(0, 0) == 0.0

    def test_delays_symmetric(self, network):
        assert network.propagation_delay(1, 7) == network.propagation_delay(7, 1)

    def test_delays_positive(self, network):
        for dest in network.nodes():
            if dest != 0:
                assert network.propagation_delay(0, dest) > 0

    def test_triangle_inequality(self, network):
        # Shortest paths: d(a,c) <= d(a,b) + d(b,c).
        d = network.propagation_delay
        assert d(0, 5) <= d(0, 2) + d(2, 5) + 1e-12

    def test_unknown_pair(self, network):
        with pytest.raises(NetworkError):
            network.propagation_delay(0, 999)


class TestConstruction:
    def test_deterministic(self):
        a = P2PNetwork(np.random.default_rng(5), node_count=16, degree=4)
        b = P2PNetwork(np.random.default_rng(5), node_count=16, degree=4)
        assert a.propagation_delay(0, 9) == b.propagation_delay(0, 9)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(NetworkError):
            P2PNetwork(np.random.default_rng(1), node_count=1)

    def test_bad_degree_rejected(self):
        with pytest.raises(NetworkError):
            P2PNetwork(np.random.default_rng(1), node_count=4, degree=10)

    def test_odd_degree_sum_patched(self):
        # 5 nodes x degree 3 = odd sum; constructor bumps the degree.
        network = P2PNetwork(np.random.default_rng(1), node_count=5, degree=3)
        assert len(network.nodes()) == 5

    def test_random_node_in_range(self):
        network = P2PNetwork(np.random.default_rng(2), node_count=10, degree=4)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert 0 <= network.random_node(rng) < 10
