"""Account state with cheap copy-on-write forking.

Block builders speculatively execute candidate blocks without mutating the
canonical state; :meth:`WorldState.fork` creates an overlay whose reads fall
through to the parent and whose writes stay local until :meth:`commit`.
Balances and nonces are two :class:`~repro.cow.CowDict` layers, so forks
are O(touched accounts), which keeps per-slot builder competition cheap
even with large account populations.  Given the execution cache's read
log, a fork's two layers are :class:`~repro.cow.RecordingCowDict` layers
that log every read escaping them, as the DeFi components' layers do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..cow import CowDict
from ..errors import ChainError, InsufficientBalanceError
from ..types import Address, Wei

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .exec_cache import ReadLog

#: The execution cache's read/write domains, both keyed by address.
BALANCE_DOMAIN = "b"
NONCE_DOMAIN = "n"


class WorldState:
    """ETH balances and account nonces, forkable copy-on-write style."""

    def __init__(
        self,
        parent: Optional["WorldState"] = None,
        log: "ReadLog | None" = None,
    ) -> None:
        self._parent = parent
        if parent is None:
            self._balances: CowDict[Address, Wei] = CowDict()
            self._nonces: CowDict[Address, int] = CowDict()
        else:
            self._balances = parent._balances.fork(log, BALANCE_DOMAIN)
            self._nonces = parent._nonces.fork(log, NONCE_DOMAIN)
        # Monotonic counters; on overlays they hold only the delta.
        self._minted_wei: Wei = 0
        self._burned_wei: Wei = 0

    # -- lookups -------------------------------------------------------

    def balance_of(self, address: Address) -> Wei:
        return self._balances.get(address, 0)  # type: ignore[return-value]

    def nonce_of(self, address: Address) -> int:
        return self._nonces.get(address, 0)  # type: ignore[return-value]

    @property
    def minted_wei(self) -> Wei:
        """Total ETH ever minted into this state (including parents)."""
        total = 0
        state: Optional[WorldState] = self
        while state is not None:
            total += state._minted_wei
            state = state._parent
        return total

    @property
    def burned_wei(self) -> Wei:
        """Total ETH ever burned from this state (including parents)."""
        total = 0
        state: Optional[WorldState] = self
        while state is not None:
            total += state._burned_wei
            state = state._parent
        return total

    # -- mutations -------------------------------------------------------

    def mint(self, address: Address, amount_wei: Wei) -> None:
        """Create new ETH (genesis funding, beacon rewards)."""
        if amount_wei < 0:
            raise ChainError(f"cannot mint negative amount {amount_wei}")
        self._balances[address] = self.balance_of(address) + amount_wei
        self._minted_wei += amount_wei

    def credit(self, address: Address, amount_wei: Wei) -> None:
        if amount_wei < 0:
            raise ChainError(f"cannot credit negative amount {amount_wei}")
        self._balances[address] = self.balance_of(address) + amount_wei

    def debit(self, address: Address, amount_wei: Wei) -> None:
        if amount_wei < 0:
            raise ChainError(f"cannot debit negative amount {amount_wei}")
        balance = self.balance_of(address)
        if balance < amount_wei:
            raise InsufficientBalanceError(
                f"{address} holds {balance} wei, cannot spend {amount_wei}"
            )
        self._balances[address] = balance - amount_wei

    def transfer(self, sender: Address, recipient: Address, amount_wei: Wei) -> None:
        """Move ETH between two accounts atomically."""
        self.debit(sender, amount_wei)
        self.credit(recipient, amount_wei)

    def burn(self, address: Address, amount_wei: Wei) -> None:
        """Destroy ETH held by ``address`` (EIP-1559 base fees)."""
        self.debit(address, amount_wei)
        self._burned_wei += amount_wei

    def record_burn(self, amount_wei: Wei) -> None:
        """Account for burned ETH whose debit already happened.

        Used by the execution engine, which debits the full fee from the
        sender in one step and then splits it into burned base fee and
        fee-recipient priority fee.
        """
        if amount_wei < 0:
            raise ChainError(f"cannot burn negative amount {amount_wei}")
        self._burned_wei += amount_wei

    def bump_nonce(self, address: Address) -> int:
        """Advance an account nonce; returns the nonce before the bump."""
        nonce = self.nonce_of(address)
        self._nonces[address] = nonce + 1
        return nonce

    # -- forking -----------------------------------------------------------

    def fork(self, log: "ReadLog | None" = None) -> "WorldState":
        """Create a copy-on-write child overlay of this state.

        Given a read log, the child records the reads escaping it; a fork
        of a recording state records into the same log.
        """
        return WorldState(parent=self, log=log)

    def commit(self) -> None:
        """Merge this overlay's writes into its parent."""
        parent = self._parent
        if parent is None:
            raise ChainError("cannot commit a root state")
        self._balances.commit()
        self._nonces.commit()
        parent._minted_wei += self._minted_wei
        parent._burned_wei += self._burned_wei
        self._minted_wei = 0
        self._burned_wei = 0

    # -- introspection -------------------------------------------------

    def total_supply(self) -> Wei:
        """Sum of all balances reachable from this state.

        O(accounts); intended for invariant checks in tests, where
        ``minted - burned == total_supply`` must always hold.
        """
        return sum(balance for _, balance in self._balances.items())
