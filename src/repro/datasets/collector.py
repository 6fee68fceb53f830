"""The study-dataset collector.

Walks a finished world the way the paper's pipeline walked its raw data:
chain blocks joined with beacon records, relay data-API crawls, mempool
observations, MEV label sources, and OFAC screening.  The resulting
:class:`StudyDataset` is the only thing the analysis package reads.

Per-block values append straight into :class:`~.columnar.ColumnBuilder`
lists and finalize into a :class:`~.columnar.BlockTable`;
``dataset.blocks`` is a :class:`~.columnar.LazyBlockList` that
materializes :class:`BlockObservation` objects only when a caller indexes
or iterates it.  :meth:`StudyDataset.content_digest` is defined over field
values, never over the storage layout.
"""

from __future__ import annotations

import copy
import datetime
import hashlib
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..beacon.builders import EpbsDataset
from ..beacon.chain import BeaconChain
from ..chain.chain import Chain
from ..chain.transaction import EthTransfer
from ..core.relay import Relay
from ..core.relay_api import DeliveredPayload
from ..errors import DataError
from ..mev.labels import MevDataset
from ..sanctions.ofac import SanctionsList
from ..sanctions.screening import SanctionScreener
from ..types import Hash, Wei
from .columnar import BlockTable, ColumnBuilder, LazyBlockList
from .records import BlockObservation, DatasetInventory


@dataclass
class StudyDataset:
    """Everything the measurement pipeline consumes.

    ``blocks`` is a :class:`LazyBlockList` over the dataset's
    :class:`BlockTable`.  A hand-built list of observations is converted
    into one on construction, so every dataset is columnar.
    """

    blocks: Sequence[BlockObservation]
    mev: MevDataset
    relays: dict[str, Relay]
    sanctions: SanctionsList
    inventory: DatasetInventory
    # Relay policy metadata for the censorship analyses (Table 3).
    compliant_relays: frozenset[str] = frozenset()
    # The ePBS protocol record (deposits, slashings, per-slot PTC votes);
    # None unless the world ran under the ``epbs`` regime.
    epbs: EpbsDataset | None = None
    # Lazily built caches; never constructor arguments, part of equality
    # or pickles.
    _by_number: dict[int, BlockObservation] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _dates: list[datetime.date] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not isinstance(self.blocks, LazyBlockList):
            self.blocks = LazyBlockList(BlockTable.from_observations(self.blocks))

    # -- columnar access ----------------------------------------------------

    @property
    def table(self) -> BlockTable:
        """The columnar view of :attr:`blocks`."""
        return self.blocks.table

    # Vectorized per-block accessors, mirroring the BlockObservation
    # derived properties as column expressions (one element per block, in
    # block order).  The analysis modules consume these.

    @property
    def is_pbs(self) -> np.ndarray:
        return self.table.is_pbs

    @property
    def relay_claimed(self) -> np.ndarray:
        return self.table.relay_claimed

    @property
    def has_pbs_payment(self) -> np.ndarray:
        return self.table.has_pbs_payment

    @property
    def is_sanctioned(self) -> np.ndarray:
        return self.table.is_sanctioned

    @property
    def block_value_wei(self) -> np.ndarray:
        return self.table.block_value_wei

    @property
    def proposer_profit_wei(self) -> np.ndarray:
        return self.table.proposer_profit_wei

    @property
    def builder_profit_wei(self) -> np.ndarray:
        return self.table.builder_profit_wei

    # -- row access ---------------------------------------------------------

    def block(self, number: int) -> BlockObservation:
        if not self._by_number:
            self._by_number = {obs.number: obs for obs in self.blocks}
        try:
            return self._by_number[number]
        except KeyError:
            raise DataError(f"no observation for block {number}") from None

    def pbs_blocks(self) -> list[BlockObservation]:
        return [self.blocks[i] for i in np.flatnonzero(self.table.is_pbs)]

    def non_pbs_blocks(self) -> list[BlockObservation]:
        return [self.blocks[i] for i in np.flatnonzero(~self.table.is_pbs)]

    def dates(self) -> list[datetime.date]:
        """Sorted unique dates, cached (recomputing per analysis added up)."""
        if self._dates is None:
            self._dates = self.table.dates()
        return list(self._dates)

    # -- pickling -----------------------------------------------------------

    def __getstate__(self) -> dict:
        # Drop rebuildable caches: the block-number index and the date
        # cache can be large or stale.  The table rides in the
        # LazyBlockList.
        state = dict(self.__dict__)
        state["_by_number"] = {}
        state["_dates"] = None
        return state

    # -- digest -------------------------------------------------------------

    def content_digest(self) -> str:
        """A stable hex digest of the collected measurement content.

        Covers every analysis-relevant per-block field plus the inventory
        and relay-policy metadata, so two collections are digest-equal iff
        the measurement pipeline would produce identical numbers — the
        equality the differential replay matrix asserts across perf
        configurations and artifact round-trips.
        """
        hasher = hashlib.sha256()

        def feed(text: str) -> None:
            hasher.update(text.encode())
            hasher.update(b"\x00")

        for obs in sorted(self.blocks, key=lambda o: o.number):
            _feed_observation(feed, obs)
        feed(f"labels:{len(self.mev)}")
        for source, count in sorted(self.inventory.mev_labels_by_source.items()):
            feed(f"labels:{source}={count}")
        inv = self.inventory
        feed(
            "inventory:"
            f"{inv.blocks}|{inv.transactions}|{inv.logs}|{inv.traces}|"
            f"{inv.mempool_arrival_times}|{inv.relay_data_entries}|"
            f"{inv.ofac_addresses}"
        )
        for name in sorted(self.compliant_relays):
            feed(f"compliant:{name}")
        if self.epbs is not None:
            # Non-ePBS digests are unchanged: the section only exists when
            # the regime produced protocol records.
            for line in self.epbs.digest_lines():
                feed(line)
        return hasher.hexdigest()


def _feed_observation(feed, obs: BlockObservation) -> None:
    """Feed one observation's digest bytes."""
    feed(
        "|".join(
            (
                str(obs.number),
                obs.block_hash,
                str(obs.slot),
                obs.date.isoformat(),
                str(obs.proposer_index),
                obs.proposer_entity,
                obs.proposer_fee_recipient,
                obs.fee_recipient,
                obs.extra_data,
                str(obs.gas_used),
                str(obs.gas_limit),
                str(obs.base_fee_per_gas),
                str(obs.burned_wei),
                str(obs.priority_fees_wei),
                str(obs.direct_transfers_wei),
                str(obs.tx_count),
                str(obs.private_tx_count),
                str(obs.builder_payment_wei),
                str(obs.builder_pubkey),
            )
        )
    )
    for relay, value in sorted(obs.claimed_by_relay.items()):
        feed(f"claim:{relay}={value}")
    for tx_hash, value in sorted(obs.tx_value_contribution.items()):
        feed(f"contrib:{tx_hash}={value}")
    for tx_hash in sorted(obs.private_tx_hashes):
        feed(f"private:{tx_hash}")
    for tx_hash in obs.sanctioned_tx_hashes:
        feed(f"sanctioned:{tx_hash}")


def _clone_relay(relay: Relay) -> Relay:
    """A merge-safe clone: shared immutable config, private data store.

    ``merge_study_datasets`` must never mutate its inputs, so absorbed
    rows land in a copied :class:`RelayDataStore`.  The clone shares the
    relay's post-run configuration and RNG (analyses only read
    ``.data``/``.policy``; merged relays are never re-run).
    """
    clone = copy.copy(relay)
    clone.data = relay.data.copy()
    return clone


def merge_study_datasets(datasets: "list[StudyDataset]") -> StudyDataset:
    """Merge per-segment datasets into one study-wide dataset, in order.

    The epoch-segment merge step: block observations concatenate (block
    numbers are globally unique by segment construction), MEV labels
    union, relay data stores absorb row-by-row into *copies* (the inputs
    are never mutated, so merging the same datasets twice is
    idempotent), and the inventory is re-derived so counts stay
    consistent with the merged stores.  Merging a single dataset returns
    it unchanged, so unsegmented runs pay nothing.

    Blocks merge by array concatenation, so the parts must arrive in
    block order (segment-index order, as ``run_sharded`` gathers them).
    Out-of-order parts raise :class:`DataError`: the ePBS ledger, relay
    stores and MEV labels concatenate in the order given, so re-sorting
    only the blocks would change the merged digest.
    """
    if not datasets:
        raise DataError("cannot merge an empty dataset list")
    if len(datasets) == 1:
        return datasets[0]

    first = datasets[0]
    mev = MevDataset(sources=first.mev.sources)
    relays: dict[str, Relay] = {}
    total_blocks = total_txs = total_logs = total_traces = total_arrivals = 0
    compliant: frozenset[str] = frozenset()
    for dataset in datasets:
        mev.absorb(dataset.mev)
        for name, relay in dataset.relays.items():
            if name in relays:
                relays[name].data.absorb(relay.data)
            else:
                relays[name] = _clone_relay(relay)
        total_blocks += dataset.inventory.blocks
        total_txs += dataset.inventory.transactions
        total_logs += dataset.inventory.logs
        total_traces += dataset.inventory.traces
        total_arrivals += dataset.inventory.mempool_arrival_times
        compliant = compliant | dataset.compliant_relays
    epbs_parts = [d.epbs for d in datasets if d.epbs is not None]
    epbs = EpbsDataset.concat(epbs_parts) if epbs_parts else None

    table = BlockTable.concat([d.table for d in datasets])
    if not table.is_number_sorted():
        raise DataError("datasets must be merged in block order")

    inventory = DatasetInventory(
        blocks=total_blocks,
        transactions=total_txs,
        logs=total_logs,
        traces=total_traces,
        mev_labels_by_source=mev.per_source_counts(),
        mev_labels_union=len(mev),
        mempool_arrival_times=total_arrivals,
        # Recomputed from the merged stores (not summed) so registration
        # dedup across segments keeps Table 1 consistent with the API rows.
        relay_data_entries=sum(
            relay.data.total_entries() for relay in relays.values()
        ),
        ofac_addresses=first.inventory.ofac_addresses,
    )
    return StudyDataset(
        blocks=LazyBlockList(table),
        mev=mev,
        relays=relays,
        sanctions=first.sanctions,
        inventory=inventory,
        compliant_relays=compliant,
        epbs=epbs,
    )


def _detect_builder_payment(block, proposer_fee_recipient) -> Wei:
    """The PBS payment convention: last tx pays the proposer's recipient."""
    last_tx = block.last_transaction
    if last_tx is None or last_tx.sender != block.fee_recipient:
        return 0
    return sum(
        action.value_wei
        for action in last_tx.actions
        if isinstance(action, EthTransfer)
        and action.recipient == proposer_fee_recipient
    )


def collect_study_dataset(world) -> StudyDataset:
    """Crawl a finished :class:`~repro.simulation.world.World`."""
    with world.perf.timer("collection"):
        return _collect_study_dataset(world, world.perf)


def _collect_study_dataset(world, perf) -> StudyDataset:
    chain: Chain = world.chain
    beacon: BeaconChain = world.beacon

    # Relay crawl: delivered payloads indexed by block hash.
    deliveries_by_hash: dict[Hash, list[DeliveredPayload]] = {}
    relay_entries = 0
    for relay in world.relays.values():
        relay_entries += relay.data.total_entries()
        for payload in relay.data.get_payloads_delivered():
            deliveries_by_hash.setdefault(payload.block_hash, []).append(payload)

    screener = SanctionScreener(world.sanctions, world.defi.tokens)
    mev = MevDataset()

    builder = ColumnBuilder()
    scalars = builder.scalars
    strings = builder.strings
    for record in beacon.proposed():
        block = chain.block_by_hash(record.execution_block_hash)
        result = chain.execution_result(block.block_hash)
        proposer = world.validators.by_index(record.proposer_index)

        mev.ingest_block(block, result.receipts, world.oracle)
        with perf.timer("screening"):
            sanctioned = tuple(
                screener.screen_block(
                    block, result.receipts, result.traces, record.date
                )
            )

        block_time = float(block.header.timestamp)
        is_public = world.observations.is_public
        private_hashes = frozenset(
            tx.tx_hash
            for tx in block.transactions
            if not is_public(tx.tx_hash, before=block_time)
        )

        contribution: dict[Hash, Wei] = {}
        for outcome in result.outcomes:
            value = outcome.priority_fee_wei + outcome.direct_tip_wei
            if value:
                contribution[outcome.receipt.tx_hash] = value

        payloads = deliveries_by_hash.get(block.block_hash, [])
        claimed = {payload.relay: payload.value_claimed_wei for payload in payloads}
        builder_pubkey = payloads[0].builder_pubkey if payloads else None

        scalars["number"].append(block.number)
        scalars["slot"].append(record.slot)
        scalars["date_ordinal"].append(record.date.toordinal())
        scalars["proposer_index"].append(proposer.index)
        scalars["gas_used"].append(block.header.gas_used)
        scalars["gas_limit"].append(block.header.gas_limit)
        scalars["tx_count"].append(len(block.transactions))
        scalars["private_tx_count"].append(len(private_hashes))
        scalars["base_fee_per_gas"].append(block.header.base_fee_per_gas)
        scalars["burned_wei"].append(result.burned_wei)
        scalars["priority_fees_wei"].append(result.priority_fees_wei)
        scalars["direct_transfers_wei"].append(result.direct_transfers_wei)
        scalars["builder_payment_wei"].append(
            _detect_builder_payment(block, proposer.fee_recipient)
        )
        strings["block_hash"].append(block.block_hash)
        strings["proposer_entity"].append(proposer.entity)
        strings["proposer_fee_recipient"].append(proposer.fee_recipient)
        strings["fee_recipient"].append(block.fee_recipient)
        strings["extra_data"].append(block.header.extra_data)
        strings["builder_pubkey"].append(builder_pubkey or "")
        builder.has_pubkey.append(builder_pubkey is not None)
        builder.append_ragged(claimed, contribution, private_hashes, sanctioned)

    inventory = DatasetInventory(
        blocks=len(chain),
        transactions=chain.total_transactions(),
        logs=chain.total_logs(),
        traces=chain.total_trace_frames(),
        mev_labels_by_source=mev.per_source_counts(),
        mev_labels_union=len(mev),
        mempool_arrival_times=world.observations.total_arrival_records(),
        relay_data_entries=relay_entries,
        ofac_addresses=len(world.sanctions),
    )

    compliant = frozenset(
        name
        for name, relay in world.relays.items()
        if relay.policy.is_censoring
    )
    return StudyDataset(
        blocks=LazyBlockList(builder.finish()),
        mev=mev,
        relays=dict(world.relays),
        sanctions=world.sanctions,
        inventory=inventory,
        compliant_relays=compliant,
        epbs=(
            world.epbs_ledger.to_dataset()
            if world.epbs_ledger is not None
            else None
        ),
    )
