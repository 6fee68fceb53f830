"""Flashbots data-API JSON shapes.

The paper's collection pipeline crawled every relay's data endpoints; the
shapes here reproduce what that crawler parsed, per the Flashbots relay
spec the forks share:

* snake_case field names, in the spec's field order;
* **string-encoded integers** for slots, values, gas and counts (the
  spec's uint64/uint256 JSON convention);
* lowercase ``0x``-prefixed hex for hashes, addresses and BLS pubkeys.

The golden schema-conformance suite pins these byte for byte, so any
drift here fails loudly rather than silently breaking scrapers.

The ``encode_*`` functions and :func:`dump_json` render each relay row
once, when the index is built, into a :class:`WireColumn`; every
relay-data response is then a slice of those bytes (a page) or a join of
a few of its fragments (a ``pubkey`` or ``block_hash`` lookup), so no
request encodes a row.  The tests use the live encoders as the oracle
the served bytes must equal.

Execution-layer fields the relay rows do not carry (gas, tx counts,
parent hash) come from the :class:`~.index.BlockJoin`; rows referencing
blocks outside the collected table (e.g. losing builder submissions)
report zeros, exactly like a relay that never validated the block.
"""

from __future__ import annotations

import json
from array import array
from itertools import accumulate
from typing import Callable, Iterable

from ..core.relay_api import (
    BuilderSubmissionRecord,
    DeliveredPayload,
    ValidatorRegistration,
)
from ..types import _digest
from .index import BlockJoin

#: Mainnet beacon-chain genesis (2020-12-01 12:00:23 UTC) — the anchor
#: the real relays use for ``slot -> timestamp``; purely presentational.
BEACON_GENESIS_TIMESTAMP = 1_606_824_023

#: Seconds per slot for the presentational timestamp mapping.
SLOT_SECONDS = 12

#: Validator registrations publish the gas limit the validator asked
#: builders to target; the simulator registers everyone at the mainnet
#: default.
REGISTERED_GAS_LIMIT = 30_000_000


def slot_timestamp(slot: int) -> int:
    return BEACON_GENESIS_TIMESTAMP + slot * SLOT_SECONDS


def encode_delivered(payload: DeliveredPayload, join: BlockJoin) -> dict:
    """One ``proposer_payload_delivered`` bid trace (spec field order)."""
    return {
        "slot": str(payload.slot),
        "parent_hash": join.parent_hash(payload.block_number),
        "block_hash": payload.block_hash,
        "builder_pubkey": payload.builder_pubkey,
        "proposer_pubkey": payload.proposer_pubkey,
        "proposer_fee_recipient": payload.proposer_fee_recipient,
        "gas_limit": str(join.gas_limit(payload.block_hash, payload.block_number)),
        "gas_used": str(join.gas_used(payload.block_hash, payload.block_number)),
        "value": str(payload.value_claimed_wei),
        "num_tx": str(join.tx_count(payload.block_hash, payload.block_number)),
        "block_number": str(payload.block_number),
    }


def encode_submission(record: BuilderSubmissionRecord, join: BlockJoin) -> dict:
    """One ``builder_blocks_received`` bid trace.

    Submissions are builder-side: the relay never learns the proposer
    before delivery, so the spec's proposer fields are absent here (the
    real relays return them zeroed or omitted depending on fork; omitting
    keeps rows honest).  ``optimistic_submission`` mirrors the accepted
    flag the simulator records; rejected submissions ride along because
    the paper's anomaly hunts need them.
    """
    gas_used = join.gas_used(record.block_hash, record.block_number)
    gas_limit = join.gas_limit(record.block_hash, record.block_number)
    timestamp = slot_timestamp(record.slot)
    return {
        "slot": str(record.slot),
        "parent_hash": join.parent_hash(record.block_number),
        "block_hash": record.block_hash,
        "builder_pubkey": record.builder_pubkey,
        "gas_limit": str(gas_limit),
        "gas_used": str(gas_used),
        "value": str(record.value_claimed_wei),
        "num_tx": str(join.tx_count(record.block_hash, record.block_number)),
        "block_number": str(record.block_number),
        "timestamp": str(timestamp),
        "timestamp_ms": str(timestamp * 1000),
        "optimistic_submission": record.accepted,
    }


def _registration_signature(registration: ValidatorRegistration) -> str:
    """A deterministic stand-in for the 96-byte BLS signature.

    Derived from the registration's content, so re-serving the same
    dataset yields byte-identical rows (the conformance suite pins them);
    real signatures are unverifiable offline anyway — the paper's
    pipeline only ever treats them as opaque strings.
    """
    seed = (
        f"registration|{registration.relay}|{registration.validator_pubkey}"
        f"|{registration.registered_slot}"
    )
    return "0x" + _digest(seed, 192)


def encode_registration(registration: ValidatorRegistration) -> dict:
    """One ``validators/registration`` response (signed message shape)."""
    return {
        "message": {
            "fee_recipient": registration.fee_recipient,
            "gas_limit": str(REGISTERED_GAS_LIMIT),
            "timestamp": str(slot_timestamp(registration.registered_slot)),
            "pubkey": registration.validator_pubkey,
        },
        "signature": _registration_signature(registration),
    }


def encode_series(series) -> dict:
    """One analysis :class:`~repro.analysis.timeseries.DailySeries`.

    Floats pass through ``json`` untouched: Python's float repr is the
    shortest round-tripping form, so a client parsing the response gets
    bit-identical values to the in-process analysis (the equivalence
    suite asserts exactly this).
    """
    return {
        "name": series.name,
        "dates": [date.isoformat() for date in series.dates],
        "values": list(series.values),
    }


def dump_json(payload) -> bytes:
    """Canonical response encoding: compact separators, insertion order."""
    return json.dumps(payload, separators=(",", ":")).encode()


class WireColumn:
    """Pre-rendered JSON row fragments as one offsets+blob column.

    Rows are encoded once, in index order, and joined by the ``,``
    separator ``dump_json`` would emit between array elements; fragment
    ``i`` starts at ``offsets[i]`` and ends one byte before
    ``offsets[i + 1]``.  Because a page is a contiguous ``[lo, hi)`` run
    of index positions, its body is a *single* blob slice bracketed with
    ``[``/``]`` — no per-request dict building, ``json.dumps`` or even a
    join — and a ``pubkey`` or ``block_hash`` lookup answers with the
    fragments of its positions (:meth:`row_bytes`).  The bytes are
    identical to ``dump_json([encode(row) for row in page])`` by
    construction: ``json.dumps`` with compact separators encodes a list
    as exactly the comma-join of its elements' standalone encodings.
    """

    __slots__ = ("_blob", "_offsets")

    def __init__(self, fragments: Iterable[bytes]) -> None:
        fragments = list(fragments)
        self._blob = b",".join(fragments)
        self._offsets = array(
            "q", accumulate((len(fragment) + 1 for fragment in fragments), initial=0)
        )

    def __len__(self) -> int:
        return len(self._offsets) - 1

    def page_bytes(self, lo: int, hi: int) -> bytes:
        """The JSON array body for index positions ``[lo, hi)``."""
        if hi <= lo:
            return b"[]"
        # offsets[hi] - 1 ends row hi - 1: its separator, or the blob's end.
        return b"[%s]" % self._blob[self._offsets[lo] : self._offsets[hi] - 1]

    def row_bytes(self, position: int) -> bytes:
        """The JSON fragment of the row at index ``position``."""
        return self._blob[self._offsets[position] : self._offsets[position + 1] - 1]


def wire_column(
    rows: Iterable[object],
    encode: Callable[[object], dict],
    memo: dict[int, bytes] | None = None,
) -> WireColumn:
    """Build a :class:`WireColumn` by encoding ``rows`` once each.

    ``memo`` (keyed by row object identity) lets the per-relay and
    combined all-relays indexes share fragments for the same underlying
    row instead of encoding it twice; all rows stay referenced by the
    stores for the life of the memo, so identity keys cannot be reused.
    """
    fragments = []
    if memo is None:
        fragments = [dump_json(encode(row)) for row in rows]
    else:
        for row in rows:
            key = id(row)
            fragment = memo.get(key)
            if fragment is None:
                fragment = dump_json(encode(row))
                memo[key] = fragment
            fragments.append(fragment)
    return WireColumn(fragments)
