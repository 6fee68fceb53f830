"""Stateless block-header validation.

The checks a proposer's execution client runs on a revealed PBS payload
before broadcasting it.  This is the mechanism behind the paper's
2022-11-10 incident: a builder shipped blocks with broken timestamps,
proposer nodes rejected them after the blinded header was already signed,
and proposers fell back to local block production (the dip in Figure 4).
"""

from __future__ import annotations

from ..constants import MAX_BLOCK_GAS
from ..types import Hash, Wei
from .block import BlockHeader

ISSUE_BAD_PARENT = "parent-hash-mismatch"
ISSUE_BAD_NUMBER = "block-number-mismatch"
ISSUE_BAD_TIMESTAMP = "invalid-timestamp"
ISSUE_BAD_BASE_FEE = "base-fee-mismatch"
ISSUE_GAS_OVERFLOW = "gas-used-above-limit"
ISSUE_GAS_LIMIT = "gas-limit-above-protocol-max"


def validate_header(
    header: BlockHeader,
    expected_parent_hash: Hash,
    expected_number: int,
    expected_timestamp: int,
    expected_base_fee: Wei,
) -> list[str]:
    """All consensus-relevant problems with a header; empty when valid.

    ``expected_timestamp`` is the slot's wall-clock time; execution clients
    reject blocks whose timestamp does not match their slot.
    """
    issues: list[str] = []
    if header.parent_hash != expected_parent_hash:
        issues.append(ISSUE_BAD_PARENT)
    if header.number != expected_number:
        issues.append(ISSUE_BAD_NUMBER)
    if header.timestamp != expected_timestamp:
        issues.append(ISSUE_BAD_TIMESTAMP)
    if header.base_fee_per_gas != expected_base_fee:
        issues.append(ISSUE_BAD_BASE_FEE)
    if header.gas_used > header.gas_limit:
        issues.append(ISSUE_GAS_OVERFLOW)
    if header.gas_limit > MAX_BLOCK_GAS:
        issues.append(ISSUE_GAS_LIMIT)
    return issues
