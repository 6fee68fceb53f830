"""Unit tests for stateless header validation."""

import pytest

from repro.chain.block import seal_block
from repro.chain.validation import (
    ISSUE_BAD_BASE_FEE,
    ISSUE_BAD_NUMBER,
    ISSUE_BAD_PARENT,
    ISSUE_BAD_TIMESTAMP,
    ISSUE_GAS_OVERFLOW,
    validate_header,
)
from repro.types import derive_address, derive_hash, gwei

PARENT = derive_hash("val", "parent")
FEE = derive_address("val", "builder")


def _header(number=5, timestamp=1000, parent=PARENT, base_fee=gwei(10),
            gas_used=1_000_000, gas_limit=30_000_000):
    return seal_block(
        number=number, slot=1, timestamp=timestamp, parent_hash=parent,
        fee_recipient=FEE, gas_limit=gas_limit, gas_used=gas_used,
        base_fee_per_gas=base_fee, transactions=(),
    ).header


EXPECT = dict(
    expected_parent_hash=PARENT,
    expected_number=5,
    expected_timestamp=1000,
    expected_base_fee=gwei(10),
)


class TestValidation:
    def test_valid_header(self):
        assert validate_header(_header(), **EXPECT) == []

    def test_bad_timestamp(self):
        issues = validate_header(_header(timestamp=232), **EXPECT)
        assert issues == [ISSUE_BAD_TIMESTAMP]

    def test_bad_parent(self):
        issues = validate_header(
            _header(parent=derive_hash("val", "other")), **EXPECT
        )
        assert ISSUE_BAD_PARENT in issues

    def test_bad_number(self):
        assert ISSUE_BAD_NUMBER in validate_header(_header(number=6), **EXPECT)

    def test_bad_base_fee(self):
        assert ISSUE_BAD_BASE_FEE in validate_header(
            _header(base_fee=gwei(11)), **EXPECT
        )

    def test_gas_overflow(self):
        header = _header(gas_used=30_000_001)
        assert ISSUE_GAS_OVERFLOW in validate_header(header, **EXPECT)

    def test_multiple_issues_reported(self):
        issues = validate_header(
            _header(number=6, timestamp=1), **EXPECT
        )
        assert set(issues) == {ISSUE_BAD_NUMBER, ISSUE_BAD_TIMESTAMP}
