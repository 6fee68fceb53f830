"""Account state with cheap copy-on-write forking.

Block builders speculatively execute candidate blocks without mutating the
canonical state; :meth:`WorldState.fork` creates an overlay whose reads fall
through to the parent and whose writes stay local until :meth:`commit`.
Forks are O(touched accounts), which keeps per-slot builder competition
cheap even with large account populations.
"""

from __future__ import annotations

from typing import Optional

from ..errors import ChainError, InsufficientBalanceError, NonceError
from ..types import Address, Wei

_MISSING = object()


class WorldState:
    """ETH balances and account nonces, forkable copy-on-write style."""

    def __init__(self, parent: Optional["WorldState"] = None) -> None:
        self._parent = parent
        self._balances: dict[Address, Wei] = {}
        self._nonces: dict[Address, int] = {}
        # Monotonic counters; on overlays they hold only the delta.
        self._minted_wei: Wei = 0
        self._burned_wei: Wei = 0

    # -- lookups -------------------------------------------------------

    def balance_of(self, address: Address) -> Wei:
        state: Optional[WorldState] = self
        while state is not None:
            balance = state._balances.get(address, _MISSING)
            if balance is not _MISSING:
                return balance  # type: ignore[return-value]
            state = state._parent
        return 0

    def nonce_of(self, address: Address) -> int:
        state: Optional[WorldState] = self
        while state is not None:
            nonce = state._nonces.get(address, _MISSING)
            if nonce is not _MISSING:
                return nonce  # type: ignore[return-value]
            state = state._parent
        return 0

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

    def bump_nonce(self, address: Address, expected: int | None = None) -> int:
        """Advance an account nonce, optionally checking the expected value."""
        nonce = self.nonce_of(address)
        if expected is not None and nonce != expected:
            raise NonceError(
                f"{address} nonce is {nonce}, transaction expected {expected}"
            )
        self._nonces[address] = nonce + 1
        return nonce

    # -- forking -----------------------------------------------------------

    def fork(self) -> "WorldState":
        """Create a copy-on-write child overlay of this state."""
        return WorldState(parent=self)

    def commit(self) -> None:
        """Merge this overlay's writes into its parent."""
        if self._parent is None:
            raise ChainError("cannot commit a root state")
        self._parent._balances.update(self._balances)
        self._parent._nonces.update(self._nonces)
        self._parent._minted_wei += self._minted_wei
        self._parent._burned_wei += self._burned_wei
        self._balances.clear()
        self._nonces.clear()
        self._minted_wei = 0
        self._burned_wei = 0

    # -- introspection -------------------------------------------------

    def total_supply(self) -> Wei:
        """Sum of all balances reachable from this state.

        O(accounts); intended for invariant checks in tests, where
        ``minted - burned == total_supply`` must always hold.
        """
        balances: dict[Address, Wei] = {}
        layers: list[WorldState] = []
        state: Optional[WorldState] = self
        while state is not None:
            layers.append(state)
            state = state._parent
        # Apply from the root down so child overlays win.
        for layer in reversed(layers):
            balances.update(layer._balances)
        return sum(balances.values())
