"""The P2P gossip overlay.

A random-regular graph with per-edge latencies; transaction propagation
follows latency-shortest paths (flooding reaches every node via its fastest
route).  Delays are precomputed all-pairs, so per-transaction queries are
dictionary lookups.
"""

from __future__ import annotations

import numpy as np

from ..errors import NetworkError

DEFAULT_NODE_COUNT = 48
DEFAULT_DEGREE = 6
MIN_EDGE_LATENCY = 0.01  # seconds
MAX_EDGE_LATENCY = 0.25


class P2PNetwork:
    """Gossip overlay with deterministic propagation delays."""

    def __init__(
        self,
        rng: np.random.Generator,
        node_count: int = DEFAULT_NODE_COUNT,
        degree: int = DEFAULT_DEGREE,
    ) -> None:
        if node_count < 2:
            raise NetworkError(f"need at least two nodes, got {node_count}")
        if degree >= node_count or degree < 1:
            raise NetworkError(f"invalid degree {degree} for {node_count} nodes")
        if (node_count * degree) % 2 != 0:
            degree += 1  # random regular graphs need an even degree sum

        # networkx loads on first use: a server imports this module through
        # the package inits but never builds a graph.
        import networkx as nx

        self.node_count = node_count
        graph_seed = int(rng.integers(0, 2**31 - 1))
        self._graph = nx.random_regular_graph(degree, node_count, seed=graph_seed)
        if not nx.is_connected(self._graph):
            # Random regular graphs are almost surely connected; patch the
            # rare disconnected draw by chaining the components.
            components = [sorted(c) for c in nx.connected_components(self._graph)]
            for left, right in zip(components, components[1:]):
                self._graph.add_edge(left[0], right[0])

        for _, _, data in self._graph.edges(data=True):
            data["latency"] = float(
                rng.uniform(MIN_EDGE_LATENCY, MAX_EDGE_LATENCY)
            )

        self._delays: dict[int, dict[int, float]] = dict(
            nx.all_pairs_dijkstra_path_length(self._graph, weight="latency")
        )

    def propagation_delay(self, origin: int, destination: int) -> float:
        """Seconds for a transaction gossiped at ``origin`` to reach ``destination``."""
        try:
            return self._delays[origin][destination]
        except KeyError:
            raise NetworkError(
                f"unknown node pair ({origin}, {destination})"
            ) from None

    def nodes(self) -> list[int]:
        return sorted(self._graph.nodes)

    def random_node(self, rng: np.random.Generator) -> int:
        return int(rng.integers(0, self.node_count))
