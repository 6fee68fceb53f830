"""Transaction screening against the OFAC list.

Mirrors the paper's lower-bound methodology: a transaction is flagged when
(1) its trace moves a nonzero amount of ETH from or to a sanctioned address,
(2) a Transfer log of one of the screened tokens (WETH, USDC, DAI, USDT,
WBTC) involves a sanctioned address, or (3) it transfers the TRON token at
all, once TRON's designation is effective.
"""

from __future__ import annotations

import datetime

from ..chain.receipts import TRANSFER_EVENT_TOPIC, Receipt
from ..chain.traces import TransactionTrace
from ..constants import SCREENED_TOKENS, TRON_TOKEN_SYMBOL
from ..defi.tokens import TokenRegistry
from ..errors import DefiError
from ..types import Address, Hash
from .ofac import SanctionsList


def tx_statically_involves(
    tx,
    blocked_addresses: frozenset[Address] | set[Address],
    blocked_tokens: frozenset[str] | set[str] = frozenset(),
) -> bool:
    """Pre-execution compliance check on a transaction's visible fields.

    Builders and relays that self-censor cannot trace a transaction before
    including it; they inspect the sender and the declared action targets.
    This is exactly why censorship has gaps the paper can measure: activity
    only visible in deep traces slips through.
    """
    if tx.sender in blocked_addresses:
        return True
    for action in tx.actions:
        recipient = getattr(action, "recipient", None)
        if recipient is not None and recipient in blocked_addresses:
            return True
        token = getattr(action, "token", None)
        if token is not None and token in blocked_tokens:
            return True
    return False


class SanctionScreener:
    """Flags transactions that do not comply with OFAC sanctions."""

    def __init__(self, sanctions: SanctionsList, tokens: TokenRegistry) -> None:
        self._sanctions = sanctions
        self._screened_token_addresses: dict[Address, str] = {}
        for symbol in (*SCREENED_TOKENS, TRON_TOKEN_SYMBOL):
            try:
                address = tokens.address_of(symbol)
            except DefiError:
                continue  # token not deployed in this world
            self._screened_token_addresses[address] = symbol

    # -- per-transaction -------------------------------------------------

    def is_non_compliant(
        self,
        trace: TransactionTrace,
        receipt: Receipt,
        date: datetime.date,
        sanctioned: frozenset[Address] | None = None,
        designated_tokens: frozenset[str] | None = None,
    ) -> bool:
        """Whether this transaction involves sanctioned activity on ``date``.

        ``sanctioned``/``designated_tokens`` let block-level callers resolve
        the dated lists once and reuse them across every transaction.
        """
        if sanctioned is None:
            sanctioned = self._sanctions.addresses_as_of(date)
        if designated_tokens is None:
            designated_tokens = self._sanctions.tokens_as_of(date)
        if sanctioned and self._trace_touches(trace, sanctioned):
            return True
        return self._logs_touch(receipt, sanctioned, designated_tokens)

    def _trace_touches(
        self, trace: TransactionTrace, sanctioned: frozenset[Address]
    ) -> bool:
        return any(
            frame.sender in sanctioned or frame.recipient in sanctioned
            for frame in trace.iter_value_transfers()
        )

    def _logs_touch(
        self,
        receipt: Receipt,
        sanctioned: frozenset[Address],
        designated_tokens: frozenset[str],
    ) -> bool:
        for log in receipt.logs_with_topic(TRANSFER_EVENT_TOPIC):
            symbol = self._screened_token_addresses.get(log.address)
            if symbol is None:
                continue
            if symbol in designated_tokens:
                # A designated token: every transfer is reportable.
                return True
            if log.data["from"] in sanctioned or log.data["to"] in sanctioned:
                return True
        return False

    # -- per-block ---------------------------------------------------------

    def screen_block(
        self,
        receipts: list[Receipt],
        traces: list[TransactionTrace],
        date: datetime.date,
    ) -> list[Hash]:
        """Hashes of this block's non-OFAC-compliant transactions."""
        flagged: list[Hash] = []
        traces_by_hash = {trace.tx_hash: trace for trace in traces}
        # Resolve the dated lists once per block, not once per transaction.
        sanctioned = self._sanctions.addresses_as_of(date)
        designated_tokens = self._sanctions.tokens_as_of(date)
        for receipt in receipts:
            trace = traces_by_hash.get(
                receipt.tx_hash, TransactionTrace(receipt.tx_hash, ())
            )
            if self.is_non_compliant(
                trace,
                receipt,
                date,
                sanctioned=sanctioned,
                designated_tokens=designated_tokens,
            ):
                flagged.append(receipt.tx_hash)
        return flagged
