"""Builder-relay connectivity (paper Section 4's landscape, as a graph).

The paper describes builders connecting to multiple relays and relays
sourcing from overlapping builder sets.  This module reconstructs the
bipartite builder-relay graph from the relay data APIs and computes the
structural measures behind those observations: degrees, redundancy
(builders reachable via several relays), and single points of failure
(builders whose blocks flow through exactly one relay).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..datasets.collector import StudyDataset
from ..errors import AnalysisError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import networkx as nx


@dataclass(frozen=True)
class ConnectivityReport:
    """Structural summary of the builder-relay graph."""

    builders: int
    relays: int
    edges: int
    mean_relays_per_builder: float
    mean_builders_per_relay: float
    single_relay_builders: int
    # Fraction of builder->proposer flow that would be lost if the
    # highest-degree relay disappeared (a relay-centralization measure).
    largest_relay_dependency: float


def builder_relay_graph(dataset: StudyDataset) -> nx.Graph:
    """Bipartite graph of builder pubkeys and relays, weighted by accepted
    submissions, rebuilt from the relay data APIs."""
    # networkx loads on first use: a server imports this module through
    # the package inits but never builds a graph.
    import networkx as nx

    graph = nx.Graph()
    for name, relay in dataset.relays.items():
        for record in relay.data.get_builder_blocks_received():
            if not record.accepted:
                continue
            builder_node = ("builder", record.builder_pubkey)
            relay_node = ("relay", name)
            if graph.has_edge(builder_node, relay_node):
                graph[builder_node][relay_node]["weight"] += 1
            else:
                graph.add_node(builder_node, bipartite="builder")
                graph.add_node(relay_node, bipartite="relay")
                graph.add_edge(builder_node, relay_node, weight=1)
    return graph


def connectivity_report(dataset: StudyDataset) -> ConnectivityReport:
    """Compute the connectivity summary for one study dataset."""
    graph = builder_relay_graph(dataset)
    builders = [n for n, d in graph.nodes(data=True) if d["bipartite"] == "builder"]
    relays = [n for n, d in graph.nodes(data=True) if d["bipartite"] == "relay"]
    if not builders or not relays:
        raise AnalysisError("no builder-relay edges in the dataset")

    builder_degrees = [graph.degree(node) for node in builders]
    relay_degrees = [graph.degree(node) for node in relays]
    single = sum(1 for degree in builder_degrees if degree == 1)

    total_weight = sum(data["weight"] for _, _, data in graph.edges(data=True))
    per_relay_weight = {
        node: sum(data["weight"] for _, _, data in graph.edges(node, data=True))
        for node in relays
    }
    biggest = max(per_relay_weight.values())

    return ConnectivityReport(
        builders=len(builders),
        relays=len(relays),
        edges=graph.number_of_edges(),
        mean_relays_per_builder=sum(builder_degrees) / len(builders),
        mean_builders_per_relay=sum(relay_degrees) / len(relays),
        single_relay_builders=single,
        largest_relay_dependency=biggest / total_weight,
    )


def relay_overlap_matrix(dataset: StudyDataset) -> dict[tuple[str, str], float]:
    """Jaccard overlap of builder sets between relay pairs.

    High overlap means the same builders feed both relays — the redundancy
    that lets market share move quickly between relays (Figure 5's
    dynamics).
    """
    builder_sets: dict[str, set[str]] = {}
    for name, relay in dataset.relays.items():
        accepted = {
            record.builder_pubkey
            for record in relay.data.get_builder_blocks_received()
            if record.accepted
        }
        if accepted:
            builder_sets[name] = accepted
    overlaps: dict[tuple[str, str], float] = {}
    names = sorted(builder_sets)
    for i, left in enumerate(names):
        for right in names[i + 1:]:
            union = builder_sets[left] | builder_sets[right]
            inter = builder_sets[left] & builder_sets[right]
            overlaps[(left, right)] = len(inter) / len(union) if union else 0.0
    return overlaps
