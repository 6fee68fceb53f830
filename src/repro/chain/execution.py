"""Deterministic transaction-execution engine.

The engine executes typed actions against a forkable
:class:`~repro.chain.state.WorldState` plus a pluggable *protocol registry*
(the DeFi substrate), producing the artefacts the measurement pipeline
consumes: receipts with event logs, internal-transfer traces, burned base
fees, priority-fee revenue and direct transfers to the fee recipient.

Block builders execute candidate blocks on a forked context to price them;
the canonical chain applies the winning block on the root context.  Failed
actions revert the whole transaction (state-wise) while the fee charge
sticks, mirroring EVM semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Protocol, Sequence

from ..errors import DefiError, ExecutionError, InsufficientBalanceError
from ..types import Address, Gas, Hash, Wei
from .receipts import STATUS_FAILURE, STATUS_SUCCESS, Log, Receipt
from .state import WorldState
from .traces import (
    FRAME_COINBASE_TIP,
    FRAME_TOP_LEVEL,
    CallFrame,
    TransactionTrace,
)
from .transaction import EthTransfer, TipCoinbase, Transaction

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .exec_cache import ReadLog


class ProtocolRegistry(Protocol):
    """Interface the DeFi substrate exposes to the execution engine."""

    def fork(self, log: "ReadLog | None" = None) -> "ProtocolRegistry":
        """Copy-on-write fork for speculative execution.

        Given the execution cache's read log, the fork records the reads
        escaping it and is never committed.
        """

    def commit(self) -> None:
        """Merge a fork's writes back into its parent."""

    def execute_action(
        self,
        action: object,
        sender: Address,
        state: WorldState,
    ) -> tuple[list[Log], list[CallFrame]]:
        """Apply one non-ETH action; return emitted logs and trace frames.

        Raises :class:`~repro.errors.DefiError` (or a subclass) when the
        action cannot be applied, which reverts the enclosing transaction.
        """


class NullProtocols:
    """A protocol registry that rejects every protocol action.

    Useful for tests and examples exercising pure-ETH workloads.
    """

    def fork(self, log: "ReadLog | None" = None) -> "NullProtocols":
        # Pure-ETH workloads have no protocol reads or writes to record.
        return self

    def commit(self) -> None:  # pragma: no cover - nothing to merge
        return None

    def extract_writes(self) -> tuple[()]:
        return ()

    def execute_action(
        self, action: object, sender: Address, state: WorldState
    ) -> tuple[list[Log], list[CallFrame]]:
        raise DefiError(f"no protocol can execute {type(action).__name__}")


@dataclass
class ExecutionContext:
    """Pairs an account state with the protocol state, forked together."""

    state: WorldState
    protocols: ProtocolRegistry

    def fork(self, log: "ReadLog | None" = None) -> "ExecutionContext":
        """Fork both halves; given a read log, both record into it."""
        return ExecutionContext(
            state=self.state.fork(log), protocols=self.protocols.fork(log)
        )

    def commit(self) -> None:
        self.state.commit()
        self.protocols.commit()


@dataclass(frozen=True, slots=True)
class TxOutcome:
    """Result of executing a single transaction."""

    receipt: Receipt
    trace: TransactionTrace
    burned_wei: Wei
    priority_fee_wei: Wei
    direct_tip_wei: Wei

    @property
    def success(self) -> bool:
        return self.receipt.success


@dataclass
class BlockExecutionResult:
    """Aggregate result of executing an ordered transaction list."""

    included: list[Transaction] = field(default_factory=list)
    outcomes: list[TxOutcome] = field(default_factory=list)
    dropped: list[Hash] = field(default_factory=list)
    gas_used: Gas = 0
    burned_wei: Wei = 0
    priority_fees_wei: Wei = 0
    direct_transfers_wei: Wei = 0

    @property
    def receipts(self) -> list[Receipt]:
        return [outcome.receipt for outcome in self.outcomes]

    @property
    def traces(self) -> list[TransactionTrace]:
        return [outcome.trace for outcome in self.outcomes]

    @property
    def block_value_wei(self) -> Wei:
        """User-generated value of the block: priority fees + direct tips."""
        return self.priority_fees_wei + self.direct_transfers_wei


class ExecutionEngine:
    """Executes transactions and blocks against an execution context."""

    def execute_transaction(
        self,
        tx: Transaction,
        ctx: ExecutionContext,
        base_fee_per_gas: Wei,
        fee_recipient: Address,
    ) -> TxOutcome:
        """Execute one transaction, charging fees and applying its actions.

        Raises :class:`ExecutionError` if the transaction cannot be included
        at all (fee cap below base fee, or sender unable to pay for gas);
        callers treat that as "drop from the block".  Action-level failures
        do *not* raise — they revert state and yield a failed receipt.
        """
        if not tx.is_eligible(base_fee_per_gas):
            raise ExecutionError(
                f"{tx.tx_hash} fee cap {tx.max_fee_per_gas} below base fee "
                f"{base_fee_per_gas}"
            )

        gas_used = tx.gas_limit
        priority_per_gas = tx.priority_fee_per_gas(base_fee_per_gas)
        fee_total = gas_used * (base_fee_per_gas + priority_per_gas)
        burned = gas_used * base_fee_per_gas
        priority = gas_used * priority_per_gas

        if ctx.state.balance_of(tx.sender) < fee_total:
            raise ExecutionError(
                f"{tx.tx_hash} sender cannot cover the gas fee of {fee_total} wei"
            )

        # The fee charge survives even if the actions revert.
        ctx.state.debit(tx.sender, fee_total)
        ctx.state.credit(fee_recipient, priority)
        ctx.state.record_burn(burned)
        ctx.state.bump_nonce(tx.sender)

        frames: list[CallFrame] = []
        logs: list[Log] = []
        # A lone ETH transfer or coinbase tip is already atomic (the debit
        # raises before anything is written), so the speculative action
        # fork — which exists to revert partially-applied action lists —
        # buys nothing; executing in place skips a fork+commit per tx.
        if len(tx.actions) == 1 and isinstance(
            tx.actions[0], (EthTransfer, TipCoinbase)
        ):
            action_ctx = ctx
        else:
            action_ctx = ctx.fork()
        status = STATUS_SUCCESS
        try:
            for action in tx.actions:
                action_logs, action_frames = self._apply_action(
                    action, tx.sender, action_ctx, fee_recipient
                )
                logs.extend(action_logs)
                frames.extend(action_frames)
        except (ExecutionError, DefiError, InsufficientBalanceError):
            status = STATUS_FAILURE
            frames = []
            logs = []
        else:
            if action_ctx is not ctx:
                action_ctx.commit()

        receipt = Receipt(
            tx_hash=tx.tx_hash,
            status=status,
            gas_used=gas_used,
            effective_gas_price=base_fee_per_gas + priority_per_gas,
            logs=tuple(logs),
        )
        trace = TransactionTrace(tx_hash=tx.tx_hash, frames=tuple(frames))
        direct_tip = sum(
            frame.value_wei
            for frame in frames
            if frame.recipient == fee_recipient and frame.kind != FRAME_TOP_LEVEL
        )
        return TxOutcome(
            receipt=receipt,
            trace=trace,
            burned_wei=burned,
            priority_fee_wei=priority,
            direct_tip_wei=direct_tip,
        )

    def execute_block(
        self,
        transactions: Sequence[Transaction],
        ctx: ExecutionContext,
        base_fee_per_gas: Wei,
        fee_recipient: Address,
        gas_limit: Gas,
    ) -> BlockExecutionResult:
        """Execute an ordered transaction list under a block gas limit.

        Transactions that do not fit in the remaining gas, are fee-ineligible,
        or whose sender cannot pay for gas are dropped (recorded in
        ``result.dropped``) rather than aborting the block — matching how a
        builder or local proposer assembles a block from a candidate list.
        """
        result = BlockExecutionResult()
        for tx in transactions:
            if result.gas_used + tx.gas_limit > gas_limit:
                result.dropped.append(tx.tx_hash)
                continue
            try:
                outcome = self.execute_transaction(
                    tx, ctx, base_fee_per_gas, fee_recipient
                )
            except (ExecutionError, InsufficientBalanceError):
                result.dropped.append(tx.tx_hash)
                continue
            result.included.append(tx)
            result.outcomes.append(outcome)
            result.gas_used += outcome.receipt.gas_used
            result.burned_wei += outcome.burned_wei
            result.priority_fees_wei += outcome.priority_fee_wei
            result.direct_transfers_wei += outcome.direct_tip_wei
        return result

    # -- internals -------------------------------------------------------

    def _apply_action(
        self,
        action: object,
        sender: Address,
        ctx: ExecutionContext,
        fee_recipient: Address,
    ) -> tuple[list[Log], list[CallFrame]]:
        """Apply one action; return the logs and trace frames it produced."""
        if isinstance(action, EthTransfer):
            ctx.state.transfer(sender, action.recipient, action.value_wei)
            frame = CallFrame(
                depth=0,
                sender=sender,
                recipient=action.recipient,
                value_wei=action.value_wei,
                kind=FRAME_TOP_LEVEL,
            )
            return [], [frame]
        if isinstance(action, TipCoinbase):
            ctx.state.transfer(sender, fee_recipient, action.value_wei)
            frame = CallFrame(
                depth=1,
                sender=sender,
                recipient=fee_recipient,
                value_wei=action.value_wei,
                kind=FRAME_COINBASE_TIP,
            )
            return [], [frame]
        return ctx.protocols.execute_action(action, sender, ctx.state)
