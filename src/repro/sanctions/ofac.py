"""The dated OFAC sanctions list.

Entries carry the date OFAC published them; per the compliance guidance the
paper cites, an address only counts as sanctioned from the *day after*
publication (list updates carry no intraday timestamp).  The list also
tracks token-level designations (TRON, sanctioned November 2022).
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass

from ..constants import MERGE_DATE, OFAC_UPDATE_DATES, TRON_SANCTION_DATE
from ..errors import ConfigError
from ..types import Address, derive_address

# Sizes of the simulated SDN batches; totals match the paper's 134 entries.
_INITIAL_BATCH_SIZE = 104  # listed before the merge (e.g. Tornado Cash, Aug 2022)
_NOV_2022_BATCH_SIZE = 18
_FEB_2023_BATCH_SIZE = 12


@dataclass(frozen=True)
class SanctionedEntry:
    """One SDN-listed Ethereum address and its publication date."""

    address: Address
    listed_date: datetime.date

    @property
    def effective_date(self) -> datetime.date:
        """First day the designation is enforceable (day after publication)."""
        return self.listed_date + datetime.timedelta(days=1)


class SanctionsList:
    """A dated list of sanctioned addresses and token designations."""

    def __init__(self) -> None:
        self._entries: list[SanctionedEntry] = []
        self._listed: set[Address] = set()
        self._sanctioned_tokens: dict[str, datetime.date] = {}
        # Per-date memos: as-of queries run once per screened transaction
        # (and per builder per slot); the list changes a handful of times
        # over the whole study window.  Invalidated on every add.
        self._addresses_as_of: dict[datetime.date, frozenset[Address]] = {}
        self._tokens_as_of: dict[datetime.date, frozenset[str]] = {}
        # Each distinct view, keyed by itself: the dates between two
        # updates share one frozenset, here and in a pickled dataset.  An
        # add leaves it alone, since an equal view is still the answer.
        self._views: dict[frozenset, frozenset] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, address: Address, listed_date: datetime.date) -> SanctionedEntry:
        if address in self._listed:
            raise ConfigError(f"{address} is already on the list")
        entry = SanctionedEntry(address=address, listed_date=listed_date)
        self._entries.append(entry)
        self._listed.add(address)
        self._addresses_as_of.clear()
        return entry

    def add_token(self, symbol: str, listed_date: datetime.date) -> None:
        """Designate an entire token (all its transfers become reportable)."""
        if symbol in self._sanctioned_tokens:
            raise ConfigError(f"token {symbol} is already designated")
        self._sanctioned_tokens[symbol] = listed_date
        self._tokens_as_of.clear()

    def entries(self) -> list[SanctionedEntry]:
        return list(self._entries)

    def addresses_as_of(self, date: datetime.date) -> frozenset[Address]:
        """Addresses whose designation is effective on ``date`` (memoized)."""
        cached = self._addresses_as_of.get(date)
        if cached is None:
            view = frozenset(
                entry.address
                for entry in self._entries
                if entry.effective_date <= date
            )
            cached = self._views.setdefault(view, view)
            self._addresses_as_of[date] = cached
        return cached

    def tokens_as_of(self, date: datetime.date) -> frozenset[str]:
        """Token designations effective on ``date`` (next-day rule applies)."""
        cached = self._tokens_as_of.get(date)
        if cached is None:
            view = frozenset(
                symbol
                for symbol, listed in self._sanctioned_tokens.items()
                if listed + datetime.timedelta(days=1) <= date
            )
            cached = self._views.setdefault(view, view)
            self._tokens_as_of[date] = cached
        return cached

    def update_dates(self) -> list[datetime.date]:
        """Distinct publication dates, ascending (the list's update events)."""
        return sorted({entry.listed_date for entry in self._entries})


def build_ofac_timeline() -> SanctionsList:
    """Build the study-window sanctions list with the real update cadence.

    One pre-merge batch (already effective at the merge), the 2022-11-08
    additions, the 2023-02-01 additions, and the TRON token designation.
    """
    sanctions = SanctionsList()
    pre_merge = MERGE_DATE - datetime.timedelta(days=30)
    for index in range(_INITIAL_BATCH_SIZE):
        sanctions.add(derive_address("sanctioned-initial", index), pre_merge)
    for index in range(_NOV_2022_BATCH_SIZE):
        sanctions.add(
            derive_address("sanctioned-nov22", index), OFAC_UPDATE_DATES[0]
        )
    for index in range(_FEB_2023_BATCH_SIZE):
        sanctions.add(
            derive_address("sanctioned-feb23", index), OFAC_UPDATE_DATES[1]
        )
    sanctions.add_token("TRON", TRON_SANCTION_DATE)
    return sanctions
