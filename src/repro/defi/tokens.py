"""ERC-20 tokens: registry, balances, and Transfer event logs.

Token balances use copy-on-write ledgers so speculative block building can
fork the entire token state cheaply.  Every transfer emits a ``Transfer``
log — the artefact the paper's sanction screening scans for the top-five
tokens and TRON.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..cow import CowDict
from ..errors import DefiError, InsufficientBalanceError
from ..chain.receipts import Log, transfer_log
from ..types import Address, derive_address

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..chain.exec_cache import ReadLog

#: The execution cache's read/write domain for balances, keyed by
#: ``(symbol, holder)``.
BALANCE_DOMAIN = "t"


@dataclass(frozen=True)
class Token:
    """One ERC-20 token contract."""

    symbol: str
    address: Address
    decimals: int = 18


class TokenRegistry:
    """All deployed tokens and their balance ledgers (forkable)."""

    def __init__(
        self,
        parent: "TokenRegistry | None" = None,
        log: "ReadLog | None" = None,
    ) -> None:
        if parent is None:
            self._tokens: dict[str, Token] = {}
            self._balances: CowDict[tuple[str, Address], int] = CowDict()
        else:
            # Token deployments are immutable; share the dict, fork balances.
            self._tokens = parent._tokens
            self._balances = parent._balances.fork(log, BALANCE_DOMAIN)
        self._parent = parent

    # -- deployment --------------------------------------------------------

    def deploy(self, symbol: str, decimals: int = 18) -> Token:
        """Deploy a token; symbol must be unique."""
        if symbol in self._tokens:
            raise DefiError(f"token {symbol} already deployed")
        token = Token(
            symbol=symbol,
            address=derive_address("token", symbol),
            decimals=decimals,
        )
        self._tokens[symbol] = token
        return token

    def token(self, symbol: str) -> Token:
        try:
            return self._tokens[symbol]
        except KeyError:
            raise DefiError(f"unknown token {symbol}") from None

    def address_of(self, symbol: str) -> Address:
        return self.token(symbol).address

    # -- balances ------------------------------------------------------

    def balance_of(self, symbol: str, holder: Address) -> int:
        self.token(symbol)  # validate symbol
        return self._balances.get((symbol, holder), 0)

    def mint(self, symbol: str, holder: Address, amount: int) -> None:
        """Create token supply out of thin air (pool seeding, faucets)."""
        if amount < 0:
            raise DefiError(f"cannot mint negative amount of {symbol}")
        self.token(symbol)
        key = (symbol, holder)
        self._balances[key] = self._balances.get(key, 0) + amount

    def transfer(
        self, symbol: str, sender: Address, recipient: Address, amount: int
    ) -> Log:
        """Move tokens and return the emitted ``Transfer`` log."""
        if amount < 0:
            raise DefiError(f"cannot transfer negative amount of {symbol}")
        token = self.token(symbol)
        sender_key = (symbol, sender)
        balance = self._balances.get(sender_key, 0)
        if balance < amount:
            raise InsufficientBalanceError(
                f"{sender} holds {balance} {symbol}, cannot send {amount}"
            )
        self._balances[sender_key] = balance - amount
        recipient_key = (symbol, recipient)
        self._balances[recipient_key] = self._balances.get(recipient_key, 0) + amount
        return transfer_log(token.address, sender, recipient, amount)

    # -- forking -----------------------------------------------------------

    def fork(self, log: "ReadLog | None" = None) -> "TokenRegistry":
        """Fork balances; given a read log, the fork records its reads."""
        return TokenRegistry(parent=self, log=log)

    def commit(self) -> None:
        if self._parent is None:
            raise DefiError("cannot commit a root TokenRegistry")
        self._balances.commit()
