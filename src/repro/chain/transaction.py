"""EIP-1559 transactions and the action payloads they carry.

Instead of EVM bytecode, a transaction carries a tuple of typed *actions*
(ETH transfers, ERC-20 transfers, AMM swaps, liquidations, coinbase tips).
Executing the actions produces exactly the observable artefacts the paper's
pipeline reads — event logs and internal value-transfer traces — so the
measurement code runs unchanged over the simulated chain.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from ..errors import ConfigError
from ..types import Address, Gas, Hash, Wei, derive_hash

# Gas cost model (mainnet-flavoured orders of magnitude).
INTRINSIC_GAS: Gas = 21_000
ETH_TRANSFER_GAS: Gas = 0  # covered by intrinsic gas
TOKEN_TRANSFER_GAS: Gas = 45_000
SWAP_GAS: Gas = 120_000
LIQUIDATION_GAS: Gas = 250_000
COINBASE_TIP_GAS: Gas = 9_000


@dataclass(frozen=True, slots=True)
class EthTransfer:
    """Plain ETH transfer to ``recipient``."""

    recipient: Address
    value_wei: Wei

    gas_cost: Gas = field(default=ETH_TRANSFER_GAS, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.value_wei < 0:
            raise ConfigError(f"negative ETH transfer value {self.value_wei}")


@dataclass(frozen=True, slots=True)
class TokenTransfer:
    """ERC-20 transfer of ``amount`` units of ``token`` to ``recipient``."""

    token: str
    recipient: Address
    amount: int

    gas_cost: Gas = field(default=TOKEN_TRANSFER_GAS, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class SwapExact:
    """Swap ``amount_in`` of ``token_in`` on ``pool_id`` for the other token.

    Reverts the transaction if the output is below ``min_amount_out``
    (slippage protection) — the hook that makes sandwich attacks and failed
    victim swaps behave realistically.
    """

    pool_id: str
    token_in: str
    amount_in: int
    min_amount_out: int = 0

    gas_cost: Gas = field(default=SWAP_GAS, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class LiquidatePosition:
    """Liquidate ``borrower``'s position on lending market ``market_id``."""

    market_id: str
    borrower: Address

    gas_cost: Gas = field(default=LIQUIDATION_GAS, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class TipCoinbase:
    """Internal ETH transfer to the block's fee recipient.

    This is how searchers pay builders ("direct transfers"): it shows up
    only in transaction traces, never as a top-level transfer.
    """

    value_wei: Wei

    gas_cost: Gas = field(default=COINBASE_TIP_GAS, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.value_wei < 0:
            raise ConfigError(f"negative coinbase tip value {self.value_wei}")


Action = EthTransfer | TokenTransfer | SwapExact | LiquidatePosition | TipCoinbase


@dataclass(frozen=True, slots=True)
class Transaction:
    """An EIP-1559 (type-2) transaction carrying typed actions."""

    tx_hash: Hash
    sender: Address
    nonce: int
    max_fee_per_gas: Wei
    max_priority_fee_per_gas: Wei
    actions: tuple[Action, ...]
    # Extra gas emulating heavier contract interaction beyond the typed
    # actions; lets blocks reach mainnet-like gas totals at simulator scale.
    extra_gas: Gas = 0
    # Total gas consumed if every action executes (our model is exact).
    # Computed once at construction: block assembly checks it against the
    # gas budget for every candidate in every builder's pass.  A field, not
    # a cached_property, which would need an instance dict.
    gas_limit: Gas = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.max_priority_fee_per_gas > self.max_fee_per_gas:
            raise ConfigError(
                "max_priority_fee_per_gas exceeds max_fee_per_gas for "
                f"{self.tx_hash}"
            )
        if self.max_fee_per_gas < 0 or self.max_priority_fee_per_gas < 0:
            raise ConfigError(f"negative fee caps for {self.tx_hash}")
        if self.extra_gas < 0:
            raise ConfigError(f"negative extra gas for {self.tx_hash}")
        object.__setattr__(
            self,
            "gas_limit",
            INTRINSIC_GAS
            + sum(action.gas_cost for action in self.actions)
            + self.extra_gas,
        )

    def is_eligible(self, base_fee_per_gas: Wei) -> bool:
        """Whether the fee cap allows inclusion at the given base fee."""
        return self.max_fee_per_gas >= base_fee_per_gas

    def priority_fee_per_gas(self, base_fee_per_gas: Wei) -> Wei:
        """Effective tip per gas unit at the given base fee (EIP-1559)."""
        return min(
            self.max_priority_fee_per_gas,
            self.max_fee_per_gas - base_fee_per_gas,
        )


class TransactionFactory:
    """Creates transactions with deterministic, world-local unique hashes.

    Each simulated world owns one factory, so identical seeds produce
    byte-identical transaction hashes regardless of how many worlds were
    built earlier in the process.
    """

    def __init__(self) -> None:
        self._counter = itertools.count()

    def create(
        self,
        sender: Address,
        nonce: int,
        actions: tuple[Action, ...] | list[Action],
        max_fee_per_gas: Wei,
        max_priority_fee_per_gas: Wei,
        extra_gas: Gas = 0,
    ) -> Transaction:
        index = next(self._counter)
        return Transaction(
            tx_hash=derive_hash("tx", f"{sender}:{nonce}:{index}"),
            sender=sender,
            nonce=nonce,
            max_fee_per_gas=max_fee_per_gas,
            max_priority_fee_per_gas=max_priority_fee_per_gas,
            actions=tuple(actions),
            extra_gas=extra_gas,
        )
