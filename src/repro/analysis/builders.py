"""Builder landscape analyses (paper Sections 4.2, 5.2; Appendix B/C).

Builders are identified by their relay pubkeys and clustered by the fee
recipient address of the blocks they land, exactly like the paper: two
pubkeys landing blocks with the same fee recipient are one builder.
Blocks whose builder set the proposer as fee recipient cluster by pubkey
only (the paper's "Builder 3"/"Builder 6" cases with no on-chain trace).

Clustering runs over the columnar table: rows group by fee-recipient /
pubkey via ``np.unique`` and groups sharing a pubkey are merged by a
union-find over the groups — no ``BlockObservation`` is built.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

import numpy as np

from ..datasets.collector import StudyDataset
from ..datasets.columnar import as_str, exact_segment_sums
from .timeseries import DailySeries, day_slices


@dataclass
class BuilderCluster:
    """One clustered builder: pubkeys sharing fee-recipient addresses.

    ``indices`` are the cluster's row positions in the dataset's block
    table, ascending.
    """

    name: str
    pubkeys: set[str] = field(default_factory=set)
    addresses: set[str] = field(default_factory=set)
    indices: list[int] = field(default_factory=list)

    @property
    def block_count(self) -> int:
        return len(self.indices)


def cluster_builders(dataset: StudyDataset) -> list[BuilderCluster]:
    """Cluster PBS blocks into builders, most blocks first.

    Pubkeys are merged into one cluster when they land blocks paying the
    same fee recipient.  Cluster names prefer the builder's extra-data tag
    (the self-identification real builders put in blocks), falling back to
    a fee-recipient/pubkey prefix.
    """
    table = dataset.table
    pbs = table.is_pbs
    mismatch = table.recipient_mismatch
    has_pubkey = table.col("has_builder_pubkey")

    # Initial groups, matching the per-observation keys: blocks paying a
    # distinct fee recipient group by address; proposer-paying blocks
    # group by pubkey; blocks with neither anchor are unattributable.
    addr_rows = np.flatnonzero(pbs & mismatch)
    pk_rows = np.flatnonzero(pbs & ~mismatch & has_pubkey)
    pubkey = table.col("builder_pubkey")

    # Group keys come from the table's cached dictionary encodings, so
    # the string sorts happen once per table; the subsets here only sort
    # small integer id arrays.
    fee_uniques, _, fee_ids = table.dictionary("fee_recipient")
    pub_uniques, _, pub_ids = table.dictionary("builder_pubkey")
    addr_present, addr_first, addr_inverse = np.unique(
        fee_ids[addr_rows], return_index=True, return_inverse=True
    )
    pk_present, pk_first, pk_inverse = np.unique(
        pub_ids[pk_rows], return_index=True, return_inverse=True
    )
    addr_uniques = fee_uniques[addr_present]
    num_addr = len(addr_uniques)
    num_groups = num_addr + len(pk_present)
    if not num_groups:
        return []

    # Two groups sharing a pubkey are one builder.  Build the
    # (pubkey, group) incidence — addr-group rows that carry a pubkey,
    # plus every pubkey-only group by construction — sort it by pubkey,
    # and link consecutive groups within each pubkey run; the connected
    # components of that link graph are the clusters.
    addr_with_pk = has_pubkey[addr_rows]
    link_pubkeys = np.concatenate(
        [pub_ids[addr_rows][addr_with_pk], pk_present]
    )
    link_groups = np.concatenate(
        [
            addr_inverse[addr_with_pk],
            np.arange(num_addr, num_groups),
        ]
    )
    _, shared_inverse = np.unique(link_pubkeys, return_inverse=True)
    order = np.argsort(shared_inverse, kind="stable")
    run_groups = link_groups[order]
    run_keys = shared_inverse[order]
    same_key = run_keys[1:] == run_keys[:-1]
    edges_a = run_groups[:-1][same_key]
    edges_b = run_groups[1:][same_key]
    parent = list(range(num_groups))

    def root(group: int) -> int:
        while parent[group] != group:
            parent[group] = parent[parent[group]]  # path halving
            group = parent[group]
        return group

    for a, b in zip(edges_a.tolist(), edges_b.tolist()):
        parent[root(a)] = root(b)
    # Component labels run over 0..num_components-1 with every value
    # used, which the searchsorted/reduceat bounds below rely on; which
    # label a component gets never matters, because clusters are ordered
    # by their first row.
    roots = [root(group) for group in range(num_groups)]
    labels = np.unique(roots, return_inverse=True)[1]
    num_components = int(labels.max()) + 1

    # First-seen row per group orders the final clusters like the legacy
    # insertion-order dict (ties under the block-count sort stay stable).
    # ``np.unique``'s first-occurrence indices point at the minimal row of
    # each group because the row arrays are ascending.
    first_row = np.concatenate([addr_rows[addr_first], pk_rows[pk_first]])

    # Groups of each component, contiguous after a stable sort by label.
    label_order = np.argsort(labels, kind="stable")
    label_bounds = np.searchsorted(
        labels[label_order], np.arange(num_components + 1)
    )
    component_first = np.minimum.reduceat(
        first_row[label_order], label_bounds[:-1]
    )

    # Rows of each component, contiguous (and ascending) after one sort
    # of every clustered row by (component label, row).
    all_rows = np.concatenate([addr_rows, pk_rows])
    row_labels = np.concatenate(
        [labels[addr_inverse], labels[num_addr + pk_inverse]]
    )
    row_order = np.lexsort((all_rows, row_labels))
    comp_rows = all_rows[row_order]
    comp_labels = row_labels[row_order]
    comp_bounds = np.searchsorted(comp_labels, np.arange(num_components + 1))

    # Distinct tags / pubkeys per component via hash sets over the
    # component's row slices — O(rows) hashing beats per-cluster (or
    # global) string sorts.
    extra_data = table.col("extra_data")
    comp_tags = extra_data[comp_rows].tolist()
    comp_pub_mask = has_pubkey[comp_rows]
    comp_pub_labels = comp_labels[comp_pub_mask]
    comp_pubs = pubkey[comp_rows[comp_pub_mask]].tolist()
    pub_bounds = np.searchsorted(
        comp_pub_labels, np.arange(num_components + 1)
    )

    clusters: list[BuilderCluster] = []
    for component in np.argsort(component_first, kind="stable"):
        groups = label_order[
            label_bounds[component] : label_bounds[component + 1]
        ]
        addresses = {
            as_str(addr_uniques[group])
            for group in groups
            if group < num_addr
        }
        rows = comp_rows[comp_bounds[component] : comp_bounds[component + 1]]
        pubkeys = {
            as_str(pub)
            for pub in set(
                comp_pubs[pub_bounds[component] : pub_bounds[component + 1]]
            )
        }
        tags = {
            as_str(tag)
            for tag in set(
                comp_tags[comp_bounds[component] : comp_bounds[component + 1]]
            )
        } - {""}
        if tags:
            name = sorted(tags)[0]
        elif addresses:
            name = f"builder@{sorted(addresses)[0][:10]}"
        else:
            name = f"builder#{sorted(pubkeys)[0][:12]}"
        clusters.append(
            BuilderCluster(
                name=name,
                pubkeys=pubkeys,
                addresses=addresses,
                indices=rows.tolist(),
            )
        )
    clusters.sort(key=lambda cluster: cluster.block_count, reverse=True)
    return clusters


def daily_builder_shares(
    dataset: StudyDataset,
) -> dict[datetime.date, dict[str, float]]:
    """Per-day share of PBS blocks built by each clustered builder (Fig. 8)."""
    clusters = cluster_builders(dataset)
    table = dataset.table
    cluster_of_row = np.full(len(table), -1, dtype=np.int64)
    for index, cluster in enumerate(clusters):
        cluster_of_row[cluster.indices] = index

    pbs = table.is_pbs
    row_clusters = cluster_of_row[pbs]
    dates, starts, ends = day_slices(table.date_ordinal[pbs])
    num_clusters = max(len(clusters), 1)
    day_index = np.repeat(np.arange(len(dates)), ends - starts)
    valid = row_clusters >= 0
    keys = day_index[valid] * num_clusters + row_clusters[valid]
    key_uniques, key_first, key_counts = np.unique(
        keys, return_index=True, return_counts=True
    )
    day_bounds = np.searchsorted(
        key_uniques // num_clusters, np.arange(len(dates) + 1)
    )
    totals = np.bincount(day_index[valid], minlength=len(dates))

    shares: dict[datetime.date, dict[str, float]] = {}
    for day, date in enumerate(dates):
        total = int(totals[day])
        if not total:
            continue
        lo, hi = day_bounds[day], day_bounds[day + 1]
        # Builders enter the day's share dict in block-encounter order so
        # order-sensitive float reductions (the HHI) match the
        # per-object accumulation exactly.
        order = np.argsort(key_first[lo:hi], kind="stable")
        day_counts: dict[str, int] = {}
        for key, count in zip(
            key_uniques[lo:hi][order].tolist(),
            key_counts[lo:hi][order].tolist(),
        ):
            name = clusters[key % num_clusters].name
            day_counts[name] = day_counts.get(name, 0) + count
        shares[date] = {name: c / total for name, c in day_counts.items()}
    return shares


def builder_profit_distribution(dataset: StudyDataset) -> dict[str, list[float]]:
    """Per-builder distribution of block profits in ETH (Fig. 11).

    Profit = block value minus the payment to the proposer; negative for
    subsidized blocks.
    """
    eth = dataset.table.ether("builder_profit_wei")
    return {
        cluster.name: [float(v) for v in eth[cluster.indices]]
        for cluster in cluster_builders(dataset)
    }


def proposer_profit_by_builder(dataset: StudyDataset) -> dict[str, list[float]]:
    """Per-builder distribution of proposer payments in ETH (Fig. 12)."""
    eth = dataset.table.ether("proposer_profit_wei")
    return {
        cluster.name: [float(v) for v in eth[cluster.indices]]
        for cluster in cluster_builders(dataset)
    }


def daily_profit_split(dataset: StudyDataset) -> tuple[DailySeries, DailySeries]:
    """Daily builder vs proposer share of PBS block value (Fig. 19).

    Shares can leave [0, 1] on days when subsidies push builder profit
    negative — the paper's Appendix C spikes.  Day sums are exact
    Python-int reductions, so shares match the per-object math bit for
    bit.
    """
    table = dataset.table
    positive = np.asarray(table.block_value_wei > 0, dtype=bool)
    selected = table.is_pbs & positive
    dates, starts, _ = day_slices(table.date_ordinal[selected])
    value_sums = exact_segment_sums(table.block_value_wei[selected], starts)
    builder_sums = exact_segment_sums(table.builder_profit_wei[selected], starts)
    proposer_sums = exact_segment_sums(
        table.proposer_profit_wei[selected], starts
    )
    builder_values = tuple(
        builder / value if value else 0.0
        for builder, value in zip(builder_sums, value_sums)
    )
    proposer_values = tuple(
        proposer / value if value else 0.0
        for proposer, value in zip(proposer_sums, value_sums)
    )
    return (
        DailySeries("builder profit share", dates, builder_values),
        DailySeries("proposer profit share", dates, proposer_values),
    )


@dataclass(frozen=True)
class BuilderMapRow:
    """One row of the builder identity map (Table 5)."""

    name: str
    addresses: tuple[str, ...]
    pubkeys: tuple[str, ...]
    blocks: int


def builder_map(dataset: StudyDataset, top: int = 17) -> list[BuilderMapRow]:
    """Builder name -> fee-recipient address(es) -> pubkey(s) (Table 5)."""
    rows = []
    for cluster in cluster_builders(dataset)[:top]:
        rows.append(
            BuilderMapRow(
                name=cluster.name,
                addresses=tuple(sorted(cluster.addresses)),
                pubkeys=tuple(sorted(cluster.pubkeys)),
                blocks=cluster.block_count,
            )
        )
    return rows
