"""Transaction receipts and event logs.

Logs follow the shape of real EVM logs: an emitting contract address, a
topic identifying the event signature, and a decoded data payload.  The MEV
detectors and sanction screeners operate purely on these logs, exactly like
the paper's pipeline does over Erigon data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Iterator, Mapping

from ..types import Address, Hash, derive_hash

# Event signature topics (stand-ins for keccak256 signatures).
TRANSFER_EVENT_TOPIC: Hash = derive_hash("event", "Transfer(address,address,uint256)")
SWAP_EVENT_TOPIC: Hash = derive_hash("event", "Swap(address,uint,uint,uint,uint,address)")
SYNC_EVENT_TOPIC: Hash = derive_hash("event", "Sync(uint112,uint112)")
LIQUIDATION_EVENT_TOPIC: Hash = derive_hash(
    "event", "LiquidationCall(address,address,address,uint256,uint256,address)"
)

STATUS_SUCCESS = 1
STATUS_FAILURE = 0


@dataclass(frozen=True, slots=True)
class Log:
    """One event log emitted by a contract during transaction execution."""

    address: Address
    topic: Hash
    data: Mapping[str, Any]

    def __post_init__(self) -> None:
        # Freeze the payload so logs are safely shareable.
        object.__setattr__(self, "data", MappingProxyType(dict(self.data)))


@dataclass(frozen=True, slots=True)
class Receipt:
    """Execution outcome of one transaction inside a block.

    It names no position: a transaction's position is its index in the
    block's outcome list.
    """

    tx_hash: Hash
    status: int
    gas_used: int
    effective_gas_price: int
    logs: tuple[Log, ...] = field(default=())

    @property
    def success(self) -> bool:
        return self.status == STATUS_SUCCESS

    def logs_with_topic(self, topic: Hash) -> Iterator[Log]:
        """Iterate over this receipt's logs matching an event topic."""
        return (log for log in self.logs if log.topic == topic)


def transfer_log(token_address: Address, sender: Address, recipient: Address, amount: int) -> Log:
    """Build an ERC-20 ``Transfer`` event log."""
    return Log(
        address=token_address,
        topic=TRANSFER_EVENT_TOPIC,
        data={"from": sender, "to": recipient, "amount": amount},
    )


def swap_log(
    pool_address: Address,
    sender: Address,
    token_in: str,
    token_out: str,
    amount_in: int,
    amount_out: int,
    recipient: Address,
) -> Log:
    """Build a Uniswap-V2-style ``Swap`` event log."""
    return Log(
        address=pool_address,
        topic=SWAP_EVENT_TOPIC,
        data={
            "sender": sender,
            "token_in": token_in,
            "token_out": token_out,
            "amount_in": amount_in,
            "amount_out": amount_out,
            "to": recipient,
        },
    )


def sync_log(pool_address: Address, reserve0: int, reserve1: int) -> Log:
    """Build a ``Sync`` event log carrying post-swap reserves."""
    return Log(
        address=pool_address,
        topic=SYNC_EVENT_TOPIC,
        data={"reserve0": reserve0, "reserve1": reserve1},
    )


def liquidation_log(
    market_address: Address,
    liquidator: Address,
    borrower: Address,
    debt_token: str,
    debt_repaid: int,
    collateral_token: str,
    collateral_seized: int,
) -> Log:
    """Build an Aave-style ``LiquidationCall`` event log."""
    return Log(
        address=market_address,
        topic=LIQUIDATION_EVENT_TOPIC,
        data={
            "liquidator": liquidator,
            "borrower": borrower,
            "debt_token": debt_token,
            "debt_repaid": debt_repaid,
            "collateral_token": collateral_token,
            "collateral_seized": collateral_seized,
        },
    )
