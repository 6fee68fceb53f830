"""The Flashbots relay data API.

Every relay (MEV Boost forks and Blocknative's Dreamboat alike) exposes the
same data endpoints; the paper crawls three of them per relay: delivered
payloads, builder block submissions, and validator registrations.  This
module is the storage + query layer behind those endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..types import Address, BLSPubkey, Hash, Wei


@dataclass(frozen=True)
class ValidatorRegistration:
    """One validator subscribed to a relay (``/validators`` endpoint)."""

    relay: str
    validator_pubkey: BLSPubkey
    fee_recipient: Address
    registered_slot: int


@dataclass(frozen=True)
class BuilderSubmissionRecord:
    """One builder block submission (``builder_blocks_received``)."""

    relay: str
    slot: int
    block_number: int
    block_hash: Hash
    builder_pubkey: BLSPubkey
    value_claimed_wei: Wei
    accepted: bool
    rejection_reason: str = ""


@dataclass(frozen=True)
class DeliveredPayload:
    """One payload handed to a proposer (``proposer_payload_delivered``)."""

    relay: str
    slot: int
    block_number: int
    block_hash: Hash
    builder_pubkey: BLSPubkey
    proposer_pubkey: BLSPubkey
    proposer_fee_recipient: Address
    value_claimed_wei: Wei


class RelayDataStore:
    """Append-only store behind one relay's data API."""

    def __init__(self, relay_name: str) -> None:
        self.relay_name = relay_name
        self._registrations: list[ValidatorRegistration] = []
        self._registered_pubkeys: set[BLSPubkey] = set()
        self._submissions: list[BuilderSubmissionRecord] = []
        self._payloads: list[DeliveredPayload] = []

    # -- writes (called by the relay) -----------------------------------

    def record_registration(self, registration: ValidatorRegistration) -> None:
        if registration.validator_pubkey in self._registered_pubkeys:
            return  # re-registration refreshes, not duplicates
        self._registered_pubkeys.add(registration.validator_pubkey)
        self._registrations.append(registration)

    def record_submission(self, record: BuilderSubmissionRecord) -> None:
        self._submissions.append(record)

    def record_delivery(self, payload: DeliveredPayload) -> None:
        self._payloads.append(payload)

    def absorb(self, other: "RelayDataStore") -> None:
        """Append another store's rows (epoch-segment merge).

        Registrations keep the refresh-not-duplicate rule: a validator
        registered in several segments yields one merged row, exactly as
        re-registration within one run would.
        """
        for registration in other._registrations:
            self.record_registration(registration)
        self._submissions.extend(other._submissions)
        self._payloads.extend(other._payloads)

    def copy(self) -> "RelayDataStore":
        """An independent store with the same rows.

        ``merge_study_datasets`` absorbs segment rows into copies so the
        merge never mutates its input datasets (rows are frozen
        dataclasses, so sharing them is safe — only the containers fork).
        """
        clone = RelayDataStore(self.relay_name)
        clone._registrations = list(self._registrations)
        clone._registered_pubkeys = set(self._registered_pubkeys)
        clone._submissions = list(self._submissions)
        clone._payloads = list(self._payloads)
        return clone

    # -- reads (the endpoints the paper crawls) ---------------------------
    #
    # Every query returns an immutable tuple over the frozen row
    # dataclasses, never the store's internal lists: callers (analyses,
    # exports, the serve layer) cannot mutate the append-only store
    # through a query result, and the rows themselves are shared, not
    # copied.  A regression test pins this contract.

    def get_validator_registrations(self) -> tuple[ValidatorRegistration, ...]:
        return tuple(self._registrations)

    def get_builder_blocks_received(self) -> tuple[BuilderSubmissionRecord, ...]:
        return tuple(self._submissions)

    def get_payloads_delivered(self) -> tuple[DeliveredPayload, ...]:
        return tuple(self._payloads)

    def total_entries(self) -> int:
        """All API rows — the relay-data entry count of Table 1."""
        return (
            len(self._registrations) + len(self._submissions) + len(self._payloads)
        )
