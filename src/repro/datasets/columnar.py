"""Columnar study-dataset storage.

A :class:`BlockTable` stores every scalar :class:`~.records.BlockObservation`
field as one numpy column and each ragged field (``claimed_by_relay``,
``tx_value_contribution``, ``private_tx_hashes``, ``sanctioned_tx_hashes``)
as an offsets array plus flat value arrays, Arrow-style.  The encoding is
lossless: ``from_observations`` followed by ``to_observations`` reproduces
every observation exactly, including ragged-field ordering where it is
semantically meaningful (``sanctioned_tx_hashes`` keeps tuple order;
``private_tx_hashes`` is a set and is stored sorted; dict fields keep
insertion order).

Two concerns shape the module:

* **Exact integer arithmetic.**  Wei amounts are unbounded Python ints in
  :class:`~.records.BlockObservation` and analysis results must not change
  when they move into arrays.  Columns holding wei use int64 when every value fits and fall
  back to object dtype otherwise; :func:`exact_sum` and
  :func:`exact_segment_sums` produce exact Python-int reductions over
  either dtype (int64 via a hi/lo split that cannot overflow, object via
  ``np.add.reduceat`` over Python ints).
* **mmap-ability.**  Every non-object column is a plain fixed-width numpy
  array, so the artifact layer can memory-map it straight out of an
  uncompressed ``.npz`` member without copying (``perf/artifacts.py``).
  Hex identifiers (hashes, addresses, pubkeys) are stored as ASCII bytes
  (``S``-dtype) — four times smaller than unicode — and decoded only when
  an observation object is materialized.

A row becomes a :class:`BlockObservation` only when a caller asks for
one (:meth:`BlockTable.row`, :meth:`BlockTable.to_observations`); the
daily analyses read columns and build no rows.
"""

from __future__ import annotations

import datetime
from typing import Iterable, Sequence

import numpy as np

from ..errors import DataError
from .records import BlockObservation

_U32_MASK = np.int64(0xFFFFFFFF)

#: Columns holding wei amounts (int64 when every value fits, else object).
WEI_COLUMNS = (
    "base_fee_per_gas",
    "burned_wei",
    "priority_fees_wei",
    "direct_transfers_wei",
    "builder_payment_wei",
    "claim_values",
    "contrib_values",
)

#: Plain int64 columns.
INT_COLUMNS = (
    "number",
    "slot",
    "date_ordinal",
    "proposer_index",
    "gas_used",
    "gas_limit",
    "tx_count",
    "private_tx_count",
)

#: Fixed-width string columns (ASCII bytes where possible).
STR_COLUMNS = (
    "block_hash",
    "proposer_entity",
    "proposer_fee_recipient",
    "fee_recipient",
    "extra_data",
    "builder_pubkey",
    "claim_relays",
    "contrib_hashes",
    "private_hashes",
    "sanctioned_hashes",
)

#: Ragged offsets arrays (int64, length ``n + 1`` each).
OFFSET_COLUMNS = (
    "claim_offsets",
    "contrib_offsets",
    "private_offsets",
    "sanctioned_offsets",
)

BOOL_COLUMNS = ("has_builder_pubkey",)

ALL_COLUMNS = WEI_COLUMNS + INT_COLUMNS + STR_COLUMNS + OFFSET_COLUMNS + BOOL_COLUMNS

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


# -- exact integer reductions ----------------------------------------------


def _int_column(values: list[int]) -> np.ndarray:
    """An int64 column when every value fits, else an object column.

    The object fallback keeps the encoding lossless for wei amounts beyond
    ±2**63 (e.g. counterfactual >9.2-ETH relay claims); such columns stay
    exact but are pickled rather than memory-mapped by the artifact layer.
    """
    if all(_INT64_MIN <= value <= _INT64_MAX for value in values):
        return np.asarray(values, dtype=np.int64)
    return np.asarray(values, dtype=object)


def exact_sum(values: np.ndarray) -> int:
    """The exact Python-int sum of an integer column (any magnitude)."""
    if values.size == 0:
        return 0
    if values.dtype == object:
        return int(sum(values.tolist()))
    lo = values & _U32_MASK
    hi = values >> np.int64(32)
    return (int(hi.sum()) << 32) + int(lo.sum())


def exact_segment_sums(values: np.ndarray, starts: np.ndarray) -> list[int]:
    """Exact per-segment sums for contiguous segments starting at ``starts``.

    ``starts`` must be ascending indices into ``values`` (each segment runs
    to the next start, the last to the end), the shape ``np.add.reduceat``
    expects.  Empty trailing segments are not supported — callers derive
    ``starts`` from the data itself, so segments are never empty.
    """
    if len(starts) == 0:
        return []
    if values.size == 0:
        return [0] * len(starts)
    if values.dtype == object:
        return [int(v) for v in np.add.reduceat(values, starts)]
    lo = np.add.reduceat(values & _U32_MASK, starts)
    hi = np.add.reduceat(values >> np.int64(32), starts)
    return [(int(h) << 32) + int(l) for h, l in zip(hi, lo)]


# -- string encoding --------------------------------------------------------


def to_ether_array(values: np.ndarray) -> np.ndarray:
    """Elementwise wei -> float ETH over an int64 or object column.

    Matches ``types.to_ether`` bit for bit: above 2**53 wei the int64 ->
    float64 cast rounds before the division does (double rounding), so
    such columns divide as Python ints, which round exactly once.
    """
    if values.dtype == object:
        return np.asarray([value / 10**18 for value in values], dtype=float)
    if values.size and int(np.abs(values).max()) > 2**53:
        return np.asarray(
            [value / 10**18 for value in values.tolist()], dtype=float
        )
    return values / 1e18


def isin_strings(column: np.ndarray, names: Iterable[str]) -> np.ndarray:
    """Membership of a fixed-width string column in a set of Python strings.

    Handles the bytes (``S``) vs unicode (``U``) storage split: targets are
    encoded to the column's kind, and names that cannot be ASCII-encoded
    simply cannot match a bytes column.
    """
    names = sorted(set(names))
    if column.size == 0 or not names:
        return np.zeros(column.shape[0], dtype=bool)
    if column.dtype.kind == "S":
        names = [name for name in names if name.isascii()]
        if not names:
            return np.zeros(column.shape[0], dtype=bool)
        targets = np.asarray(names, dtype="S")
    elif column.dtype == object:
        wanted = set(names)
        return np.asarray(
            [value in wanted for value in column.tolist()], dtype=bool
        )
    else:
        targets = np.asarray(names, dtype="U")
    return np.isin(column, targets)


def per_segment_counts(member: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """How many True values fall inside each ragged segment.

    Unlike ``np.add.reduceat`` this handles empty segments correctly.
    """
    cumulative = np.zeros(member.shape[0] + 1, dtype=np.int64)
    np.cumsum(member, out=cumulative[1:])
    return cumulative[offsets[1:]] - cumulative[offsets[:-1]]


def _str_column(values: list[str]) -> np.ndarray:
    """ASCII values pack into fixed-width bytes; anything else stays unicode.

    Fixed-width numpy strings silently drop trailing NULs, so values
    containing ``"\\x00"`` fall back to an object column (exact but
    pickled rather than memory-mapped, like oversized wei columns).
    """
    if not values:
        return np.asarray(values, dtype="S1")
    if any("\x00" in value for value in values):
        return np.asarray(values, dtype=object)
    try:
        return np.asarray(values, dtype=bytes)
    except UnicodeEncodeError:
        return np.asarray(values, dtype=str)


def as_str(value) -> str:
    """Decode one cell of a string column back to ``str``."""
    if isinstance(value, bytes):
        return value.decode("ascii")
    return str(value)


def _offsets(counts: list[int]) -> np.ndarray:
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(np.asarray(counts, dtype=np.int64), out=offsets[1:])
    return offsets


class ColumnBuilder:
    """Accumulates per-block values; ``collect_study_dataset`` appends here.

    One ``append_*`` call per block per field group keeps the hot
    collection loop free of :class:`BlockObservation` construction; the
    builder finalizes into a :class:`BlockTable` in one pass.
    """

    def __init__(self) -> None:
        self.scalars: dict[str, list] = {
            name: [] for name in INT_COLUMNS + WEI_COLUMNS[:5]
        }
        self.strings: dict[str, list[str]] = {
            name: [] for name in STR_COLUMNS[:6]
        }
        self.has_pubkey: list[bool] = []
        self.claim_counts: list[int] = []
        self.claim_relays: list[str] = []
        self.claim_values: list[int] = []
        self.contrib_counts: list[int] = []
        self.contrib_hashes: list[str] = []
        self.contrib_values: list[int] = []
        self.private_counts: list[int] = []
        self.private_hashes: list[str] = []
        self.sanctioned_counts: list[int] = []
        self.sanctioned_hashes: list[str] = []

    def append_ragged(
        self,
        claimed_by_relay: dict[str, int],
        tx_value_contribution: dict[str, int],
        private_tx_hashes: frozenset[str],
        sanctioned_tx_hashes: tuple[str, ...],
    ) -> None:
        self.claim_counts.append(len(claimed_by_relay))
        self.claim_relays.extend(claimed_by_relay.keys())
        self.claim_values.extend(claimed_by_relay.values())
        self.contrib_counts.append(len(tx_value_contribution))
        self.contrib_hashes.extend(tx_value_contribution.keys())
        self.contrib_values.extend(tx_value_contribution.values())
        ordered_private = sorted(private_tx_hashes)
        self.private_counts.append(len(ordered_private))
        self.private_hashes.extend(ordered_private)
        self.sanctioned_counts.append(len(sanctioned_tx_hashes))
        self.sanctioned_hashes.extend(sanctioned_tx_hashes)

    def finish(self) -> "BlockTable":
        columns: dict[str, np.ndarray] = {}
        for name, values in self.scalars.items():
            if name in WEI_COLUMNS:
                columns[name] = _int_column(values)
            else:
                columns[name] = np.asarray(values, dtype=np.int64)
        for name, values in self.strings.items():
            columns[name] = _str_column(values)
        columns["has_builder_pubkey"] = np.asarray(self.has_pubkey, dtype=bool)
        columns["claim_offsets"] = _offsets(self.claim_counts)
        columns["claim_relays"] = _str_column(self.claim_relays)
        columns["claim_values"] = _int_column(self.claim_values)
        columns["contrib_offsets"] = _offsets(self.contrib_counts)
        columns["contrib_hashes"] = _str_column(self.contrib_hashes)
        columns["contrib_values"] = _int_column(self.contrib_values)
        columns["private_offsets"] = _offsets(self.private_counts)
        columns["private_hashes"] = _str_column(self.private_hashes)
        columns["sanctioned_offsets"] = _offsets(self.sanctioned_counts)
        columns["sanctioned_hashes"] = _str_column(self.sanctioned_hashes)
        return BlockTable(columns)


class BlockTable:
    """Column-oriented storage of a list of :class:`BlockObservation`.

    Rows are ordered exactly as the observations were appended; a
    :class:`~.collector.StudyDataset` requires block order.  Derived
    column expressions (``is_pbs``, ``block_value_wei``, ...) mirror the
    per-object derived properties and are cached after first use.
    """

    def __init__(self, columns: dict[str, np.ndarray]) -> None:
        missing = [name for name in ALL_COLUMNS if name not in columns]
        if missing:
            raise DataError(f"BlockTable missing columns: {missing}")
        self.columns = columns
        self._derived: dict[str, np.ndarray] = {}
        self._encodings: dict[
            str, tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = {}

    def __len__(self) -> int:
        return int(self.columns["number"].shape[0])

    def col(self, name: str) -> np.ndarray:
        return self.columns[name]

    # -- construction -------------------------------------------------------

    @classmethod
    def from_observations(
        cls, observations: Iterable[BlockObservation]
    ) -> "BlockTable":
        builder = ColumnBuilder()
        scalars = builder.scalars
        strings = builder.strings
        for obs in observations:
            scalars["number"].append(obs.number)
            scalars["slot"].append(obs.slot)
            scalars["date_ordinal"].append(obs.date.toordinal())
            scalars["proposer_index"].append(obs.proposer_index)
            scalars["gas_used"].append(obs.gas_used)
            scalars["gas_limit"].append(obs.gas_limit)
            scalars["tx_count"].append(obs.tx_count)
            scalars["private_tx_count"].append(obs.private_tx_count)
            scalars["base_fee_per_gas"].append(obs.base_fee_per_gas)
            scalars["burned_wei"].append(obs.burned_wei)
            scalars["priority_fees_wei"].append(obs.priority_fees_wei)
            scalars["direct_transfers_wei"].append(obs.direct_transfers_wei)
            scalars["builder_payment_wei"].append(obs.builder_payment_wei)
            strings["block_hash"].append(obs.block_hash)
            strings["proposer_entity"].append(obs.proposer_entity)
            strings["proposer_fee_recipient"].append(obs.proposer_fee_recipient)
            strings["fee_recipient"].append(obs.fee_recipient)
            strings["extra_data"].append(obs.extra_data)
            strings["builder_pubkey"].append(obs.builder_pubkey or "")
            builder.has_pubkey.append(obs.builder_pubkey is not None)
            builder.append_ragged(
                obs.claimed_by_relay,
                obs.tx_value_contribution,
                obs.private_tx_hashes,
                obs.sanctioned_tx_hashes,
            )
        return builder.finish()

    # -- materialization ----------------------------------------------------

    def row(self, i: int) -> BlockObservation:
        """Materialize one row as a full :class:`BlockObservation`."""
        c = self.columns
        claims_lo, claims_hi = int(c["claim_offsets"][i]), int(c["claim_offsets"][i + 1])
        contrib_lo, contrib_hi = int(c["contrib_offsets"][i]), int(c["contrib_offsets"][i + 1])
        priv_lo, priv_hi = int(c["private_offsets"][i]), int(c["private_offsets"][i + 1])
        sanc_lo, sanc_hi = int(c["sanctioned_offsets"][i]), int(c["sanctioned_offsets"][i + 1])
        return BlockObservation(
            number=int(c["number"][i]),
            block_hash=as_str(c["block_hash"][i]),
            slot=int(c["slot"][i]),
            date=datetime.date.fromordinal(int(c["date_ordinal"][i])),
            proposer_index=int(c["proposer_index"][i]),
            proposer_entity=as_str(c["proposer_entity"][i]),
            proposer_fee_recipient=as_str(c["proposer_fee_recipient"][i]),
            fee_recipient=as_str(c["fee_recipient"][i]),
            extra_data=as_str(c["extra_data"][i]),
            gas_used=int(c["gas_used"][i]),
            gas_limit=int(c["gas_limit"][i]),
            base_fee_per_gas=int(c["base_fee_per_gas"][i]),
            burned_wei=int(c["burned_wei"][i]),
            priority_fees_wei=int(c["priority_fees_wei"][i]),
            direct_transfers_wei=int(c["direct_transfers_wei"][i]),
            tx_count=int(c["tx_count"][i]),
            private_tx_count=int(c["private_tx_count"][i]),
            builder_payment_wei=int(c["builder_payment_wei"][i]),
            claimed_by_relay={
                as_str(relay): int(value)
                for relay, value in zip(
                    c["claim_relays"][claims_lo:claims_hi],
                    c["claim_values"][claims_lo:claims_hi],
                )
            },
            builder_pubkey=(
                as_str(c["builder_pubkey"][i])
                if bool(c["has_builder_pubkey"][i])
                else None
            ),
            tx_value_contribution={
                as_str(tx_hash): int(value)
                for tx_hash, value in zip(
                    c["contrib_hashes"][contrib_lo:contrib_hi],
                    c["contrib_values"][contrib_lo:contrib_hi],
                )
            },
            private_tx_hashes=frozenset(
                as_str(h) for h in c["private_hashes"][priv_lo:priv_hi]
            ),
            sanctioned_tx_hashes=tuple(
                as_str(h) for h in c["sanctioned_hashes"][sanc_lo:sanc_hi]
            ),
        )

    def to_observations(self) -> list[BlockObservation]:
        return [self.row(i) for i in range(len(self))]

    # -- derived column expressions -----------------------------------------

    def _cache(self, name: str, compute) -> np.ndarray:
        cached = self._derived.get(name)
        if cached is None:
            cached = compute()
            self._derived[name] = cached
        return cached

    def dictionary(
        self, name: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dictionary encoding of one string column, cached after first use.

        Returns ``(uniques, first_index, inverse)`` exactly as
        ``np.unique(column, return_index=True, return_inverse=True)``
        would: sorted distinct values, the position of each value's first
        occurrence, and per-row interned ids.  Analyses that group by a
        string column repeatedly share the one sort this costs.
        """
        entry = self._encodings.get(name)
        if entry is None:
            entry = np.unique(
                self.columns[name], return_index=True, return_inverse=True
            )
            self._encodings[name] = entry
        return entry

    def ether(self, name: str) -> np.ndarray:
        """Cached exact wei -> ETH conversion of one wei column.

        ``name`` may be a stored column or a derived expression
        (``block_value_wei``, ``proposer_profit_wei``, ...).
        """
        return self._cache(
            f"ether:{name}",
            lambda: to_ether_array(
                getattr(self, name)
                if name not in self.columns
                else self.columns[name]
            ),
        )

    def _counts(self, offsets_name: str) -> np.ndarray:
        offsets = self.columns[offsets_name]
        return offsets[1:] - offsets[:-1]

    def ragged_counts(self, offsets_name: str) -> np.ndarray:
        """Per-row element counts of one ragged field (e.g. claims)."""
        return self._counts(offsets_name)

    @property
    def relay_claimed(self) -> np.ndarray:
        return self._cache(
            "relay_claimed", lambda: self._counts("claim_offsets") > 0
        )

    @property
    def has_pbs_payment(self) -> np.ndarray:
        return self._cache(
            "has_pbs_payment",
            lambda: np.asarray(
                self.columns["builder_payment_wei"] > 0, dtype=bool
            ),
        )

    @property
    def is_pbs(self) -> np.ndarray:
        return self._cache(
            "is_pbs", lambda: self.relay_claimed | self.has_pbs_payment
        )

    @property
    def is_sanctioned(self) -> np.ndarray:
        return self._cache(
            "is_sanctioned", lambda: self._counts("sanctioned_offsets") > 0
        )

    @property
    def block_value_wei(self) -> np.ndarray:
        return self._cache(
            "block_value_wei",
            lambda: self.columns["priority_fees_wei"]
            + self.columns["direct_transfers_wei"],
        )

    @property
    def recipient_mismatch(self) -> np.ndarray:
        """fee_recipient != proposer_fee_recipient, elementwise."""
        return self._cache(
            "recipient_mismatch",
            lambda: np.asarray(
                self.columns["fee_recipient"]
                != self.columns["proposer_fee_recipient"],
                dtype=bool,
            ),
        )

    @property
    def proposer_profit_wei(self) -> np.ndarray:
        def compute() -> np.ndarray:
            value = self.block_value_wei
            payment = self.columns["builder_payment_wei"]
            zero = (
                np.zeros(len(self), dtype=object)
                if payment.dtype == object or value.dtype == object
                else np.zeros(len(self), dtype=np.int64)
            )
            return np.where(
                ~self.recipient_mismatch,
                value,
                np.where(self.has_pbs_payment, payment, zero),
            )

        return self._cache("proposer_profit_wei", compute)

    @property
    def builder_profit_wei(self) -> np.ndarray:
        def compute() -> np.ndarray:
            value = self.block_value_wei
            payment = self.columns["builder_payment_wei"]
            profit = value - payment
            zero = (
                np.zeros(len(self), dtype=object)
                if profit.dtype == object
                else np.zeros(len(self), dtype=np.int64)
            )
            return np.where(self.is_pbs & self.recipient_mismatch, profit, zero)

        return self._cache("builder_profit_wei", compute)

    @property
    def date_ordinal(self) -> np.ndarray:
        return self.columns["date_ordinal"]

    def dates(self) -> list[datetime.date]:
        """Sorted unique calendar dates of the table's rows."""
        return [
            datetime.date.fromordinal(int(o))
            for o in np.unique(self.columns["date_ordinal"])
        ]

    # -- concatenation (the sharded merge path) ------------------------------

    @classmethod
    def concat(cls, tables: "Sequence[BlockTable]") -> "BlockTable":
        """Concatenate tables row-wise; offsets are rebased, values appended.

        This is the sharded merge: per-segment tables arrive in
        segment-index order, and the merged dataset's constructor checks
        that the result is in block order.
        """
        if not tables:
            raise DataError("cannot concatenate zero BlockTables")
        if len(tables) == 1:
            return tables[0]
        columns: dict[str, np.ndarray] = {}
        plain = [
            name
            for name in ALL_COLUMNS
            if name not in OFFSET_COLUMNS
        ]
        for name in plain:
            parts = [t.columns[name] for t in tables]
            if any(p.dtype == object for p in parts):
                parts = [
                    np.asarray(
                        [as_str(v) for v in p.tolist()], dtype=object
                    )
                    if p.dtype.kind in "SU"
                    else p
                    for p in parts
                ]
            elif any(p.dtype.kind == "U" for p in parts) and any(
                p.dtype.kind == "S" for p in parts
            ):
                # Mixed bytes/unicode would silently truncate under numpy's
                # promotion rules; widen bytes parts to unicode explicitly.
                parts = [
                    p.astype(f"U{max(p.dtype.itemsize, 1)}")
                    if p.dtype.kind == "S"
                    else p
                    for p in parts
                ]
            columns[name] = np.concatenate(parts)
        for name in OFFSET_COLUMNS:
            offsets_parts = []
            base = np.int64(0)
            for index, table in enumerate(tables):
                offs = table.columns[name]
                if index == 0:
                    offsets_parts.append(offs)
                else:
                    offsets_parts.append(offs[1:] + base)
                base = base + offs[-1]
            columns[name] = np.concatenate(offsets_parts)
        return cls(columns)

    # -- (de)serialization ---------------------------------------------------

    def to_arrays(self) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
        """(mmap-able columns, object-dtype columns) for the artifact layer."""
        plain: dict[str, np.ndarray] = {}
        ragged_objects: dict[str, np.ndarray] = {}
        for name, column in self.columns.items():
            if column.dtype == object:
                ragged_objects[name] = column
            else:
                plain[name] = column
        return plain, ragged_objects

    @classmethod
    def from_arrays(
        cls,
        plain: dict[str, np.ndarray],
        objects: dict[str, np.ndarray] | None = None,
    ) -> "BlockTable":
        columns = dict(plain)
        if objects:
            columns.update(objects)
        return cls(columns)
