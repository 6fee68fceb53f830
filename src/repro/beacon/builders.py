"""Builders as staked validators: the EIP-7732 (ePBS) consensus objects.

Enshrined PBS makes builders first-class protocol participants.  A
builder joins by submitting a deposit whose withdrawal credentials carry
the ``0x03`` *builder prefix* (analogous to the ``0x01`` execution-address
prefix); the deposit is escrowed by the protocol as slashable collateral.
Activation goes through a churn-limited queue exactly like validator
activation, so builder-set growth is rate-limited.  Once active, a
builder's signed execution-payload bids are protocol commitments: if the
revealed payload pays less than the committed bid the difference is
settled from the escrow, and *gross* reneging — like withholding the
payload outright after winning — is a slashable offence that also ejects
the builder from the active set.

This module holds the registry (deposits, activation, escrow accounting,
slashing) and the :class:`EpbsLedger` of per-slot protocol events the
dataset collector publishes.  The two-phase slot itself (bid commit →
payload reveal → payload-timeliness attestation) lives in
:mod:`repro.core.epbs`.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import BeaconError
from ..types import Address, BLSPubkey, Wei, derive_address, ether

#: Withdrawal-credential prefix marking a deposit as a *builder* deposit
#: (EIP-7732's counterpart to the 0x01 execution-address prefix).
BUILDER_WITHDRAWAL_PREFIX = 0x03

#: The minimum (and, in this model, the standard) builder deposit.
MIN_BUILDER_DEPOSIT_WEI: Wei = ether(32)

#: Days between a deposit landing and the builder becoming *eligible*
#: for activation (the eligibility-epoch delay, in study days).
ACTIVATION_DELAY_DAYS = 2

#: Builders admitted from the activation queue per day (the churn limit).
ACTIVATION_CHURN_PER_DAY = 4

#: Slashing reasons recorded on :class:`SlashingEvent`.
SLASH_REASON_WITHHELD = "withheld-payload"
SLASH_REASON_RENEGING = "bid-reneging"


def builder_withdrawal_credentials(address: Address) -> str:
    """The 32-byte ``0x03`` credential committing to an execution address.

    Layout per the spec: one prefix byte, eleven zero bytes, then the
    20-byte execution-layer address the escrowed stake withdraws to.
    """
    body = address[2:] if address.startswith("0x") else address
    return f"0x{BUILDER_WITHDRAWAL_PREFIX:02x}" + "00" * 11 + body


# ---------------------------------------------------------------------------
# Ledger records (plain data; published through the study dataset)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DepositEvent:
    """One builder deposit processed by the protocol."""

    builder: str
    day: int
    amount_wei: Wei
    withdrawal_credentials: str


@dataclass(frozen=True)
class SlashingEvent:
    """One slashing applied to a builder's escrowed collateral."""

    builder: str
    day: int
    reason: str
    penalty_wei: Wei


@dataclass(frozen=True)
class EpbsSlotRecord:
    """Protocol-level outcome of one ePBS slot's two phases.

    ``revealed`` is False when the winning builder withheld the payload;
    ``payload_full`` is True only when the payload-timeliness committee
    attested the reveal and the execution payload became canonical.
    ``settled_wei`` is the escrow settlement on top of the embedded
    payment (bid shortfall, or the whole charged bid for withheld/empty
    slots).
    """

    slot: int
    day: int
    builder: str
    bid_wei: Wei
    payment_wei: Wei
    settled_wei: Wei
    revealed: bool
    payload_full: bool
    ptc_votes_for: int
    ptc_equivocations: int


@dataclass(frozen=True)
class EpbsDataset:
    """The collected ePBS protocol record (deposits, slashings, PTC votes).

    Attached to a :class:`~repro.datasets.collector.StudyDataset` when the
    world ran under the ``epbs`` regime; segment datasets concatenate in
    segment order during the sharded merge.
    """

    deposits: tuple[DepositEvent, ...] = ()
    slashings: tuple[SlashingEvent, ...] = ()
    slots: tuple[EpbsSlotRecord, ...] = ()

    def digest_lines(self):
        """Stable per-record digest lines (fed into the dataset digest)."""
        for event in self.deposits:
            yield (
                f"epbs-deposit:{event.builder}|{event.day}|"
                f"{event.amount_wei}|{event.withdrawal_credentials}"
            )
        for event in self.slashings:
            yield (
                f"epbs-slash:{event.builder}|{event.day}|{event.reason}|"
                f"{event.penalty_wei}"
            )
        for rec in self.slots:
            yield (
                f"epbs-slot:{rec.slot}|{rec.builder}|{rec.bid_wei}|"
                f"{rec.payment_wei}|{rec.settled_wei}|{int(rec.revealed)}|"
                f"{int(rec.payload_full)}|{rec.ptc_votes_for}|"
                f"{rec.ptc_equivocations}"
            )

    @staticmethod
    def concat(parts: "list[EpbsDataset]") -> "EpbsDataset":
        """Concatenate per-segment records in the given (segment) order."""
        return EpbsDataset(
            deposits=tuple(e for part in parts for e in part.deposits),
            slashings=tuple(e for part in parts for e in part.slashings),
            slots=tuple(r for part in parts for r in part.slots),
        )


class EpbsLedger:
    """Mutable event sink the registry and the auction write into."""

    def __init__(self) -> None:
        self.deposits: list[DepositEvent] = []
        self.slashings: list[SlashingEvent] = []
        self.slots: list[EpbsSlotRecord] = []

    def record_deposit(self, event: DepositEvent) -> None:
        self.deposits.append(event)

    def record_slashing(self, event: SlashingEvent) -> None:
        self.slashings.append(event)

    def record_slot(self, record: EpbsSlotRecord) -> None:
        self.slots.append(record)

    def to_dataset(self) -> EpbsDataset:
        return EpbsDataset(
            deposits=tuple(self.deposits),
            slashings=tuple(self.slashings),
            slots=tuple(self.slots),
        )


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


@dataclass
class BuilderRecord:
    """One staked builder's consensus-layer record."""

    name: str
    pubkey: BLSPubkey
    address: Address
    withdrawal_credentials: str
    deposit_wei: Wei
    deposit_day: int
    #: Remaining slashable escrow (decremented by settlements and slashes).
    collateral_wei: Wei = 0
    #: Genesis builders join the initial set without queueing.
    genesis: bool = False
    funded: bool = False
    activation_day: int | None = None
    slashed: bool = False
    slashed_day: int | None = None

    def is_active(self, day: int) -> bool:
        return (
            self.activation_day is not None
            and self.activation_day <= day
            and not self.slashed
        )


class BuilderRegistry:
    """Deposits, the activation queue, and the collateral escrow.

    The registry is driven day by day (:meth:`process_day`), which makes
    it checkpointable: a segment world fast-forwards the registry through
    the days before its window and lands in exactly the state a
    full-window run would have had — deposits, churned activations and
    escrow balances are all pure functions of the schedule and the day.
    Slashings applied *during* a run deactivate the builder for the rest
    of its segment (cross-segment propagation would break segment
    independence; the ledger records the event either way).
    """

    def __init__(self, state, ledger: EpbsLedger | None = None) -> None:
        self.state = state
        self.ledger = ledger
        self.escrow_address: Address = derive_address("epbs", "builder-escrow")
        self._records: dict[str, BuilderRecord] = {}
        self._order: list[str] = []  # deposit-submission order (FIFO queue)

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, name: str) -> bool:
        return name in self._records

    def record(self, name: str) -> BuilderRecord:
        try:
            return self._records[name]
        except KeyError:
            raise BeaconError(f"unknown builder {name!r}") from None

    # -- deposits and activation ----------------------------------------

    def submit_deposit(
        self,
        name: str,
        pubkey: BLSPubkey,
        address: Address,
        amount_wei: Wei = MIN_BUILDER_DEPOSIT_WEI,
        day: int = 0,
        genesis: bool = False,
    ) -> BuilderRecord:
        """Schedule a builder deposit for ``day`` (processed by the queue).

        ``genesis`` builders model the initial builder set: their deposit
        still escrows on ``day``, but activation is immediate rather than
        churn-limited — exactly like the genesis validator set.
        """
        if name in self._records:
            raise BeaconError(f"builder {name!r} already deposited")
        if amount_wei < MIN_BUILDER_DEPOSIT_WEI:
            raise BeaconError(
                f"deposit {amount_wei} below the {MIN_BUILDER_DEPOSIT_WEI} "
                "minimum"
            )
        record = BuilderRecord(
            name=name,
            pubkey=pubkey,
            address=address,
            withdrawal_credentials=builder_withdrawal_credentials(address),
            deposit_wei=amount_wei,
            deposit_day=day,
            genesis=genesis,
        )
        self._records[name] = record
        self._order.append(name)
        return record

    def process_day(self, day: int) -> None:
        """Fund due deposits and churn the activation queue for ``day``."""
        for name in self._order:
            record = self._records[name]
            if record.funded or record.deposit_day > day:
                continue
            self.state.transfer(
                record.address, self.escrow_address, record.deposit_wei
            )
            record.funded = True
            record.collateral_wei = record.deposit_wei
            if record.genesis:
                record.activation_day = day
            if self.ledger is not None:
                self.ledger.record_deposit(
                    DepositEvent(
                        builder=name,
                        day=day,
                        amount_wei=record.deposit_wei,
                        withdrawal_credentials=record.withdrawal_credentials,
                    )
                )
        activated = 0
        for name in self._order:
            record = self._records[name]
            if (
                record.activation_day is not None
                or not record.funded
                or record.deposit_day + ACTIVATION_DELAY_DAYS > day
            ):
                continue
            if activated >= ACTIVATION_CHURN_PER_DAY:
                break
            record.activation_day = day
            activated += 1

    def is_active(self, name: str, day: int) -> bool:
        record = self._records.get(name)
        return record is not None and record.is_active(day)

    # -- escrow accounting ----------------------------------------------

    def charge(
        self, name: str, recipient: Address, amount_wei: Wei, state=None
    ) -> Wei:
        """Pay ``recipient`` from a builder's escrowed collateral.

        Settles at most the builder's remaining collateral; returns the
        amount actually transferred.  ``state`` selects the state layer
        the transfer lands on (a winning submission's speculative fork,
        or the canonical state for withheld/empty slots).
        """
        if amount_wei <= 0:
            return 0
        target = state if state is not None else self.state
        record = self.record(name)
        available = min(
            record.collateral_wei, target.balance_of(self.escrow_address)
        )
        settled = min(amount_wei, available)
        if settled > 0:
            target.transfer(self.escrow_address, recipient, settled)
            record.collateral_wei -= settled
        return settled

    def slash(
        self, name: str, penalty_wei: Wei, day: int, reason: str, state=None
    ) -> Wei:
        """Burn up to ``penalty_wei`` of a builder's collateral and eject it.

        The builder leaves the active set immediately (mid-epoch): a
        slashed builder's bids are ignored for the rest of the run.
        Returns the amount actually burned.
        """
        target = state if state is not None else self.state
        record = self.record(name)
        burned = min(
            penalty_wei,
            record.collateral_wei,
            target.balance_of(self.escrow_address),
        )
        if burned > 0:
            target.burn(self.escrow_address, burned)
            record.collateral_wei -= burned
        record.slashed = True
        record.slashed_day = day
        if self.ledger is not None:
            self.ledger.record_slashing(
                SlashingEvent(
                    builder=name, day=day, reason=reason, penalty_wei=burned
                )
            )
        return burned
