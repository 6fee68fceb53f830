"""Unit tests for receipts, logs and traces."""

import pytest

from repro.chain.receipts import (
    LIQUIDATION_EVENT_TOPIC,
    STATUS_FAILURE,
    STATUS_SUCCESS,
    SWAP_EVENT_TOPIC,
    SYNC_EVENT_TOPIC,
    TRANSFER_EVENT_TOPIC,
    Log,
    Receipt,
    liquidation_log,
    swap_log,
    sync_log,
    transfer_log,
)
from repro.chain.traces import (
    FRAME_INTERNAL,
    FRAME_TOP_LEVEL,
    CallFrame,
    TransactionTrace,
)
from repro.types import derive_address, derive_hash, gwei

A = derive_address("rt", "a")
B = derive_address("rt", "b")
TOKEN = derive_address("rt", "token")


class TestLogs:
    def test_topics_distinct(self):
        topics = {
            TRANSFER_EVENT_TOPIC,
            SWAP_EVENT_TOPIC,
            SYNC_EVENT_TOPIC,
            LIQUIDATION_EVENT_TOPIC,
        }
        assert len(topics) == 4

    def test_log_data_frozen(self):
        log = transfer_log(TOKEN, A, B, 5)
        with pytest.raises(TypeError):
            log.data["amount"] = 6

    def test_builders(self):
        assert transfer_log(TOKEN, A, B, 5).topic == TRANSFER_EVENT_TOPIC
        assert swap_log(TOKEN, A, "X", "Y", 1, 2, B).topic == SWAP_EVENT_TOPIC
        assert sync_log(TOKEN, 1, 2).topic == SYNC_EVENT_TOPIC
        assert (
            liquidation_log(TOKEN, A, B, "USDC", 1, "WETH", 2).topic
            == LIQUIDATION_EVENT_TOPIC
        )


class TestReceipts:
    def _receipt(self, status=STATUS_SUCCESS, logs=()):
        return Receipt(
            tx_hash=derive_hash("rt", "tx"),
            status=status,
            gas_used=21_000,
            effective_gas_price=gwei(12),
            logs=tuple(logs),
        )

    def test_success_flag(self):
        assert self._receipt().success
        assert not self._receipt(status=STATUS_FAILURE).success

    def test_logs_with_topic_filters(self):
        logs = [transfer_log(TOKEN, A, B, 1), sync_log(TOKEN, 1, 2)]
        receipt = self._receipt(logs=logs)
        assert len(list(receipt.logs_with_topic(TRANSFER_EVENT_TOPIC))) == 1
        assert len(list(receipt.logs_with_topic(SWAP_EVENT_TOPIC))) == 0


class TestTraces:
    def _trace(self, frames):
        return TransactionTrace(tx_hash=derive_hash("rt", "t"), frames=tuple(frames))

    def test_value_transfers_skip_zero(self):
        trace = self._trace(
            [
                CallFrame(0, A, B, 0, FRAME_TOP_LEVEL),
                CallFrame(1, A, B, 5, FRAME_INTERNAL),
            ]
        )
        assert [frame.value_wei for frame in trace.iter_value_transfers()] == [5]
