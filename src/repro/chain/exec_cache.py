"""Shared speculative-execution cache for the per-slot builder auction.

Every active builder speculatively executes largely the same candidate
transactions against contexts that differ only in a few touched
accounts.  The :class:`ExecutionCache` memoizes
:meth:`~repro.chain.execution.ExecutionEngine.execute_transaction`
outcomes so that work is done once per slot instead of once per builder.

Correctness rests on *verified read/write-set replay*:

* On a cache **miss** the transaction is executed once on a *recording*
  overlay of the caller's context, ``ctx.fork(log)``: every copy-on-write
  layer it stacks, ETH and DeFi alike, is a
  :class:`~repro.cow.RecordingCowDict`.  Every read that falls through to
  the caller's state is logged with the value observed; every write is
  captured as an absolute value.
* On a cache **hit** the recorded read set is re-validated against the
  new caller's context.  Only if every read matches is the write set
  applied — so a replay is *provably* equivalent to re-executing.
  Mismatches simply record an additional variant.
* The fee recipient is parametrized out by executing against a sentinel
  coinbase address: priority fees and coinbase tips are captured as a
  single delta credited to the actual recipient at replay time, and
  sentinel trace frames are rebound.  (Direct-tip accounting stays exact
  because only ``TipCoinbase`` produces non-top-level value frames.)
* A receipt names no block position — a transaction's position is its
  index in the block's outcome list — so every hit returns the variant's
  recorded outcome object itself.  Only a variant with coinbase-tip
  frames builds a new outcome on each replay, naming its fee recipient.

Both the recorder and every reuser apply effects through the same replay
routine, so a cached outcome is bit-identical to direct execution — the
property the determinism regression test (same seed, with or without the
cache ⇒ identical world digest) locks in.

A cache instance lives for exactly one slot: the base fee, oracle prices
and canonical state are constant within a slot, which keeps read sets
small and hit rates high.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DefiError, ExecutionError, InsufficientBalanceError
from ..types import Address, Wei, derive_address
from .execution import ExecutionContext, ExecutionEngine, TxOutcome
from .receipts import STATUS_FAILURE, STATUS_SUCCESS, Receipt
from .state import BALANCE_DOMAIN, NONCE_DOMAIN
from .traces import (
    FRAME_COINBASE_TIP,
    FRAME_TOP_LEVEL,
    CallFrame,
    TransactionTrace,
)
from .transaction import EthTransfer, TipCoinbase, Transaction

#: The placeholder coinbase used while recording, never a real account.
COINBASE_SENTINEL: Address = derive_address("exec-cache", "coinbase-sentinel")

# A transaction whose read set keeps diverging across builders (e.g. a swap
# on a heavily-traded pool, where every builder sees different reserves at
# its position) is not worth memoizing: each extra variant costs a full
# recorded execution plus ever-longer match scans.  Past this many variants
# the cache steps aside and the transaction executes directly.
_MAX_VARIANTS = 4


class ReadLog:
    """Deduplicated log of reads that escaped the recording overlay.

    Reads are kept pre-split by domain — ETH balances
    (``state.BALANCE_DOMAIN``), nonces (``state.NONCE_DOMAIN``) and
    protocol state — so a variant's match loops never re-dispatch on the
    domain string (matching runs once per builder per variant, recording
    once).  The ETH state reads its own layers in those loops; protocol
    domains are delegated to the registry's ``read_effective`` /
    ``apply_writes`` hooks (see :mod:`repro.defi.registry`).
    """

    __slots__ = ("balances", "nonces", "protocols", "_seen")

    def __init__(self) -> None:
        self.balances: list[tuple[object, object]] = []
        self.nonces: list[tuple[object, object]] = []
        self.protocols: list[tuple[str, object, object]] = []
        self._seen: set[tuple[str, object]] = set()

    def record(self, domain: str, key: object, value: object) -> None:
        """Log the value a read saw below the recording boundary.

        ``None`` is a missing key.  A missing ETH balance or nonce is
        logged as 0, which is what ``balance_of`` and ``nonce_of`` read
        back when the variant is matched.
        """
        mark = (domain, key)
        if mark in self._seen:
            return
        if domain == BALANCE_DOMAIN:
            if key == COINBASE_SENTINEL:
                return  # the sentinel is virtual; its balance is never real
            self.balances.append((key, 0 if value is None else value))
        elif domain == NONCE_DOMAIN:
            self.nonces.append((key, 0 if value is None else value))
        else:
            self.protocols.append((domain, key, value))
        self._seen.add(mark)


@dataclass(frozen=True)
class CachedVariant:
    """One recorded execution of a transaction under a specific read set.

    The read set is stored pre-split by domain — ``balance_reads`` and
    ``nonce_reads`` as ``(address, value)`` pairs, ``protocol_reads`` as
    ``(domain, key, value)`` triples — because match checks run once per
    builder per variant and must not re-dispatch on domain strings.
    """

    balance_reads: tuple[tuple[Address, Wei], ...]
    nonce_reads: tuple[tuple[Address, int], ...]
    protocol_reads: tuple[tuple[str, object, object], ...]
    # Inclusion-level failure replayed as a raise (fee-ineligible / broke
    # sender): (exception class, message).  No writes, no outcome.
    error: tuple[type, str] | None
    balance_writes: tuple[tuple[Address, Wei], ...]
    nonce_writes: tuple[tuple[Address, int], ...]
    minted_delta: Wei
    burned_delta: Wei
    # Everything the sentinel coinbase accrued (priority fees + tips),
    # credited to the real fee recipient at replay time.
    coinbase_delta: Wei
    # (domain, [(key, value-or-None), ...]) per written DeFi layer; None
    # means deletion.
    protocol_writes: tuple[tuple[str, list[tuple[object, object]]], ...]
    outcome: TxOutcome | None
    # False means every replay returns ``outcome`` itself.
    has_sentinel_frames: bool


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0


class ExecutionCache:
    """Per-slot, cross-builder memo of transaction execution outcomes."""

    def __init__(self) -> None:
        self._variants: dict[str, list[CachedVariant]] = {}
        self.stats = CacheStats()

    # -- public API --------------------------------------------------------

    def execute(
        self,
        engine: ExecutionEngine,
        tx: Transaction,
        ctx: ExecutionContext,
        base_fee_per_gas: Wei,
        fee_recipient: Address,
    ) -> TxOutcome:
        """Drop-in replacement for ``engine.execute_transaction``.

        Raises exactly what direct execution would raise, applies exactly
        the writes direct execution would apply to ``ctx``, and returns a
        bit-identical outcome.
        """
        variants = self._variants.get(tx.tx_hash)
        if variants is not None:
            for variant in variants:
                if self._matches(variant, ctx):
                    self.stats.hits += 1
                    return self._apply(variant, ctx, fee_recipient)
            if len(variants) >= _MAX_VARIANTS:
                # Conflict-heavy transaction: recording yet another variant
                # costs more than it can ever save.  Direct execution has
                # identical effects, so determinism is unaffected.
                self.stats.misses += 1
                return engine.execute_transaction(
                    tx, ctx, base_fee_per_gas, fee_recipient
                )
        self.stats.misses += 1
        actions = tx.actions
        if len(actions) == 1 and type(actions[0]) in (EthTransfer, TipCoinbase):
            variant = self._record_simple(tx, ctx, base_fee_per_gas)
        else:
            variant = self._record(engine, tx, ctx, base_fee_per_gas)
        self._variants.setdefault(tx.tx_hash, []).append(variant)
        return self._apply(variant, ctx, fee_recipient)

    def __len__(self) -> int:
        return len(self._variants)

    # -- internals -------------------------------------------------------

    def _matches(self, variant: CachedVariant, ctx: ExecutionContext) -> bool:
        state = ctx.state
        balance_of = state.balance_of
        for key, expected in variant.balance_reads:
            if balance_of(key) != expected:
                return False
        nonce_of = state.nonce_of
        for key, expected in variant.nonce_reads:
            if nonce_of(key) != expected:
                return False
        protocol_reads = variant.protocol_reads
        if protocol_reads:
            read_effective = ctx.protocols.read_effective
            for domain, key, expected in protocol_reads:
                if read_effective(domain, key) != expected:
                    return False
        return True

    @staticmethod
    def _error_variant(
        balance_reads: tuple[tuple[Address, Wei], ...], message: str
    ) -> CachedVariant:
        return CachedVariant(
            balance_reads=balance_reads,
            nonce_reads=(),
            protocol_reads=(),
            error=(ExecutionError, message),
            balance_writes=(),
            nonce_writes=(),
            minted_delta=0,
            burned_delta=0,
            coinbase_delta=0,
            protocol_writes=(),
            outcome=None,
            has_sentinel_frames=False,
        )

    def _record(
        self,
        engine: ExecutionEngine,
        tx: Transaction,
        ctx: ExecutionContext,
        base_fee_per_gas: Wei,
    ) -> CachedVariant:
        """Record one execution on a recording overlay of ``ctx``.

        Mirrors ``ExecutionEngine.execute_transaction`` inline, with one
        twist: actions run *in place* on the overlay instead of on the
        engine's per-transaction action fork.  On success the overlay's
        local layers equal what fork-plus-commit would have produced; on
        an action failure the (now polluted) overlay is discarded and the
        fee-only failure variant is rebuilt analytically — the shared read
        log already holds every read the engine path would have logged.

        Kept hand-written on purpose: one ``engine.execute_transaction``
        call on the overlay records the same variants, but made the
        ``study`` simulation slower at the median in paired runs (DESIGN.md
        §6b has the numbers).
        """
        if not tx.is_eligible(base_fee_per_gas):
            return self._error_variant(
                (),
                f"{tx.tx_hash} fee cap {tx.max_fee_per_gas} below base fee "
                f"{base_fee_per_gas}",
            )

        log = ReadLog()
        rec_ctx = ctx.fork(log)
        rec_state = rec_ctx.state

        gas_used = tx.gas_limit
        priority_per_gas = tx.priority_fee_per_gas(base_fee_per_gas)
        fee_total = gas_used * (base_fee_per_gas + priority_per_gas)
        burned = gas_used * base_fee_per_gas
        priority = gas_used * priority_per_gas

        sender = tx.sender
        sender_balance = rec_state.balance_of(sender)
        if sender_balance < fee_total:
            return self._error_variant(
                tuple(log.balances),
                f"{tx.tx_hash} sender cannot cover the gas fee of "
                f"{fee_total} wei",
            )

        # The fee charge survives even if the actions revert.
        rec_state.debit(sender, fee_total)
        rec_state.credit(COINBASE_SENTINEL, priority)
        rec_state.record_burn(burned)
        nonce_after = rec_state.bump_nonce(sender) + 1
        # Post-fee snapshot, in case the actions fail below.  The sentinel
        # was just written in the recording layer, so reading it logs nothing.
        sender_after_fee = sender_balance - fee_total
        coinbase_after_fee = rec_state.balance_of(COINBASE_SENTINEL)

        apply_action = engine._apply_action
        frames: list = []
        logs: list = []
        try:
            for action in tx.actions:
                action_logs, action_frames = apply_action(
                    action, sender, rec_ctx, COINBASE_SENTINEL
                )
                logs.extend(action_logs)
                frames.extend(action_frames)
        except (ExecutionError, DefiError, InsufficientBalanceError):
            receipt = Receipt(
                tx_hash=tx.tx_hash,
                status=STATUS_FAILURE,
                gas_used=gas_used,
                effective_gas_price=base_fee_per_gas + priority_per_gas,
                logs=(),
            )
            outcome = TxOutcome(
                receipt=receipt,
                trace=TransactionTrace(tx_hash=tx.tx_hash, frames=()),
                burned_wei=burned,
                priority_fee_wei=priority,
                direct_tip_wei=0,
            )
            return CachedVariant(
                balance_reads=tuple(log.balances),
                nonce_reads=tuple(log.nonces),
                protocol_reads=tuple(log.protocols),
                error=None,
                balance_writes=((sender, sender_after_fee),),
                nonce_writes=((sender, nonce_after),),
                minted_delta=0,
                burned_delta=burned,
                coinbase_delta=coinbase_after_fee,
                protocol_writes=(),
                outcome=outcome,
                has_sentinel_frames=False,
            )

        receipt = Receipt(
            tx_hash=tx.tx_hash,
            status=STATUS_SUCCESS,
            gas_used=gas_used,
            effective_gas_price=base_fee_per_gas + priority_per_gas,
            logs=tuple(logs),
        )
        direct_tip = 0
        has_sentinel = False
        for frame in frames:
            if frame.recipient == COINBASE_SENTINEL:
                has_sentinel = True
                if frame.kind != FRAME_TOP_LEVEL:
                    direct_tip += frame.value_wei
        outcome = TxOutcome(
            receipt=receipt,
            trace=TransactionTrace(tx_hash=tx.tx_hash, frames=tuple(frames)),
            burned_wei=burned,
            priority_fee_wei=priority,
            direct_tip_wei=direct_tip,
        )
        balances = dict(rec_state._balances.writes())
        coinbase_delta = balances.pop(COINBASE_SENTINEL, 0)
        return CachedVariant(
            balance_reads=tuple(log.balances),
            nonce_reads=tuple(log.nonces),
            protocol_reads=tuple(log.protocols),
            error=None,
            balance_writes=tuple(balances.items()),
            nonce_writes=tuple(rec_state._nonces.writes()),
            minted_delta=rec_state._minted_wei,
            burned_delta=rec_state._burned_wei,
            coinbase_delta=coinbase_delta,
            protocol_writes=tuple(rec_ctx.protocols.extract_writes()),
            outcome=outcome,
            has_sentinel_frames=has_sentinel,
        )

    def _record_simple(
        self,
        tx: Transaction,
        ctx: ExecutionContext,
        base_fee_per_gas: Wei,
    ) -> CachedVariant:
        """Analytic variant for a lone ETH transfer or coinbase tip.

        These transactions dominate the candidate lists and their outcome
        is a closed-form function of three reads (sender balance, sender
        nonce, recipient balance), so the variant is computed directly —
        mirroring ``ExecutionEngine.execute_transaction`` step for step —
        instead of paying for a recording overlay execution.  Routing these
        through the engine as well made ``study`` and ``local`` slower in
        paired runs (DESIGN.md §6b).
        """
        action = tx.actions[0]
        value = action.value_wei
        if not tx.is_eligible(base_fee_per_gas):
            return self._error_variant(
                (),
                f"{tx.tx_hash} fee cap {tx.max_fee_per_gas} below base fee "
                f"{base_fee_per_gas}",
            )

        gas_used = tx.gas_limit
        priority_per_gas = tx.priority_fee_per_gas(base_fee_per_gas)
        fee_total = gas_used * (base_fee_per_gas + priority_per_gas)
        burned = gas_used * base_fee_per_gas
        priority = gas_used * priority_per_gas

        state = ctx.state
        sender = tx.sender
        sender_balance = state.balance_of(sender)
        if sender_balance < fee_total:
            return self._error_variant(
                ((sender, sender_balance),),
                f"{tx.tx_hash} sender cannot cover the gas fee of "
                f"{fee_total} wei",
            )

        nonce = state.nonce_of(sender)
        balance_reads: list[tuple[Address, Wei]] = [(sender, sender_balance)]
        after_fee = sender_balance - fee_total
        is_tip = type(action) is TipCoinbase
        coinbase_delta = priority
        status = STATUS_SUCCESS
        frames: tuple[CallFrame, ...] = ()
        balance_writes: list[tuple[Address, Wei]]
        if after_fee < value:
            # The action reverts (insufficient balance); the fee sticks.
            status = STATUS_FAILURE
            balance_writes = [(sender, after_fee)]
        elif is_tip:
            balance_writes = [(sender, after_fee - value)]
            coinbase_delta += value
            frames = (
                CallFrame(
                    depth=1,
                    sender=sender,
                    recipient=COINBASE_SENTINEL,
                    value_wei=value,
                    kind=FRAME_COINBASE_TIP,
                ),
            )
        else:
            recipient = action.recipient
            if recipient == sender:
                balance_writes = [(sender, after_fee)]
            else:
                recipient_balance = state.balance_of(recipient)
                balance_reads.append((recipient, recipient_balance))
                balance_writes = [
                    (sender, after_fee - value),
                    (recipient, recipient_balance + value),
                ]
            frames = (
                CallFrame(
                    depth=0,
                    sender=sender,
                    recipient=recipient,
                    value_wei=value,
                    kind=FRAME_TOP_LEVEL,
                ),
            )

        receipt = Receipt(
            tx_hash=tx.tx_hash,
            status=status,
            gas_used=gas_used,
            effective_gas_price=base_fee_per_gas + priority_per_gas,
            logs=(),
        )
        outcome = TxOutcome(
            receipt=receipt,
            trace=TransactionTrace(tx_hash=tx.tx_hash, frames=frames),
            burned_wei=burned,
            priority_fee_wei=priority,
            direct_tip_wei=value if (is_tip and status == STATUS_SUCCESS) else 0,
        )
        return CachedVariant(
            balance_reads=tuple(balance_reads),
            nonce_reads=((sender, nonce),),
            protocol_reads=(),
            error=None,
            balance_writes=tuple(balance_writes),
            nonce_writes=((sender, nonce + 1),),
            minted_delta=0,
            burned_delta=burned,
            coinbase_delta=coinbase_delta,
            protocol_writes=(),
            outcome=outcome,
            has_sentinel_frames=is_tip and status == STATUS_SUCCESS,
        )

    def _apply(
        self,
        variant: CachedVariant,
        ctx: ExecutionContext,
        fee_recipient: Address,
    ) -> TxOutcome:
        """Apply a variant's effects to ``ctx`` — the single replay path.

        Used by the recorder and every reuser alike, so both produce the
        same writes in the same layers direct execution would have.  The
        returned outcome is the variant's recorded one, except that a
        variant with sentinel frames returns a copy rebound to the real fee
        recipient, built with direct dataclass construction —
        ``dataclasses.replace`` field introspection was a measured hotspot.
        """
        if variant.error is not None:
            error_cls, message = variant.error
            raise error_cls(message)
        state = ctx.state
        balances = state._balances
        balances.store(variant.balance_writes)
        state._nonces.store(variant.nonce_writes)
        state._minted_wei += variant.minted_delta
        state._burned_wei += variant.burned_delta
        if variant.coinbase_delta:
            # Inlined ``state.credit`` — the delta is non-negative by
            # construction, so the guard there is dead weight here.
            balances[fee_recipient] = (
                state.balance_of(fee_recipient) + variant.coinbase_delta
            )
        if variant.protocol_writes:
            ctx.protocols.apply_writes(variant.protocol_writes)

        outcome = variant.outcome
        if not variant.has_sentinel_frames:
            return outcome
        trace = outcome.trace
        frames = tuple(
            CallFrame(
                depth=frame.depth,
                sender=frame.sender,
                recipient=fee_recipient,
                value_wei=frame.value_wei,
                kind=frame.kind,
            )
            if frame.recipient == COINBASE_SENTINEL
            else frame
            for frame in trace.frames
        )
        return TxOutcome(
            receipt=outcome.receipt,
            trace=TransactionTrace(tx_hash=trace.tx_hash, frames=frames),
            burned_wei=outcome.burned_wei,
            priority_fee_wei=outcome.priority_fee_wei,
            direct_tip_wei=outcome.direct_tip_wei,
        )
