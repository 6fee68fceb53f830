"""Execution-layer substrate.

Implements the pieces of the Ethereum execution layer that the paper's
measurement pipeline reads: EIP-1559 transactions and fee market, blocks,
receipts with event logs, internal-call traces, account state, and a
deterministic transaction-execution engine.
"""
