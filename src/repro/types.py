"""Shared primitive types and unit helpers.

Money is handled as integer wei end-to-end (floats appear only in the
analysis layer).  Addresses and hashes are lowercase ``0x``-prefixed hex
strings, derived deterministically so that identical seeds produce identical
worlds.
"""

from __future__ import annotations

import hashlib

# Type aliases.  Plain aliases (not NewType) keep the simulator ergonomic
# while still documenting intent in signatures.
Address = str
Hash = str
BLSPubkey = str
Wei = int
Gas = int

WEI_PER_GWEI: Wei = 10**9
WEI_PER_ETHER: Wei = 10**18

_ADDRESS_HEX_LEN = 40
_HASH_HEX_LEN = 64
_PUBKEY_HEX_LEN = 96


def ether(amount: float | int) -> Wei:
    """Convert an ETH amount into integer wei.

    Accepts floats for convenience in configuration code; rounds to the
    nearest wei so that e.g. ``ether(0.1)`` is exact enough for accounting.
    """
    return int(round(amount * WEI_PER_ETHER))


def gwei(amount: float | int) -> Wei:
    """Convert a gwei amount into integer wei."""
    return int(round(amount * WEI_PER_GWEI))


def to_ether(amount_wei: Wei) -> float:
    """Convert wei to a float ETH amount (analysis/reporting only)."""
    return amount_wei / WEI_PER_ETHER


def _digest(payload: str, length: int) -> str:
    raw = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    while len(raw) < length:
        raw += hashlib.sha256(raw.encode("utf-8")).hexdigest()
    return raw[:length]


def derive_address(namespace: str, index: int | str) -> Address:
    """Derive a deterministic 20-byte address from a namespace and index.

    The namespace keeps address populations (users, builders, searchers,
    sanctioned entities, contracts, ...) disjoint.
    """
    return "0x" + _digest(f"addr:{namespace}:{index}", _ADDRESS_HEX_LEN)


def derive_hash(namespace: str, index: int | str) -> Hash:
    """Derive a deterministic 32-byte hash (tx/block identifiers)."""
    return "0x" + _digest(f"hash:{namespace}:{index}", _HASH_HEX_LEN)


def derive_pubkey(namespace: str, index: int | str) -> BLSPubkey:
    """Derive a deterministic 48-byte BLS public key (builders, validators)."""
    return "0x" + _digest(f"pubkey:{namespace}:{index}", _PUBKEY_HEX_LEN)
