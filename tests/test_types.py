"""Unit tests for repro.types."""

import pytest

from repro.types import (
    WEI_PER_ETHER,
    WEI_PER_GWEI,
    derive_address,
    derive_hash,
    derive_pubkey,
    ether,
    gwei,
    to_ether,
)


class TestUnits:
    def test_ether_is_exact_for_integers(self):
        assert ether(3) == 3 * WEI_PER_ETHER

    def test_ether_rounds_floats(self):
        assert ether(0.1) == WEI_PER_ETHER // 10

    def test_gwei(self):
        assert gwei(2) == 2 * WEI_PER_GWEI

    def test_to_ether_round_trips(self):
        assert to_ether(ether(1.5)) == pytest.approx(1.5)

    def test_zero(self):
        assert ether(0) == 0
        assert to_ether(0) == 0.0


class TestDerivation:
    def test_address_shape(self):
        address = derive_address("user", 1)
        assert address.startswith("0x")
        assert len(address) == 42
        int(address, 16)

    def test_hash_shape(self):
        value = derive_hash("tx", "payload")
        assert value.startswith("0x")
        assert len(value) == 66
        int(value, 16)

    def test_pubkey_shape(self):
        pubkey = derive_pubkey("builder", 0)
        assert pubkey.startswith("0x")
        assert len(pubkey) == 98

    def test_deterministic(self):
        assert derive_address("x", 1) == derive_address("x", 1)
        assert derive_hash("x", 1) == derive_hash("x", 1)

    def test_namespaces_disjoint(self):
        assert derive_address("user", 1) != derive_address("builder", 1)

    def test_indices_disjoint(self):
        assert derive_address("user", 1) != derive_address("user", 2)
