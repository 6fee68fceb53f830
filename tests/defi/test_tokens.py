"""Unit tests for the ERC-20 substrate."""

import pytest

from repro.chain.receipts import TRANSFER_EVENT_TOPIC
from repro.defi.tokens import TokenRegistry
from repro.errors import DefiError, InsufficientBalanceError
from repro.types import derive_address

ALICE = derive_address("tok", "alice")
BOB = derive_address("tok", "bob")


@pytest.fixture
def tokens():
    registry = TokenRegistry()
    registry.deploy("WETH")
    registry.deploy("USDC", decimals=6)
    registry.mint("WETH", ALICE, 10**18)
    return registry


class TestDeployment:
    def test_token_metadata(self, tokens):
        usdc = tokens.token("USDC")
        assert usdc.decimals == 6

    def test_duplicate_symbol_rejected(self, tokens):
        with pytest.raises(DefiError):
            tokens.deploy("WETH")

    def test_unknown_token_rejected(self, tokens):
        with pytest.raises(DefiError):
            tokens.balance_of("NOPE", ALICE)

    def test_addresses_unique(self, tokens):
        assert tokens.address_of("WETH") != tokens.address_of("USDC")


class TestTransfers:
    def test_transfer_moves_balance(self, tokens):
        tokens.transfer("WETH", ALICE, BOB, 4 * 10**17)
        assert tokens.balance_of("WETH", ALICE) == 6 * 10**17
        assert tokens.balance_of("WETH", BOB) == 4 * 10**17

    def test_transfer_emits_log(self, tokens):
        log = tokens.transfer("WETH", ALICE, BOB, 1)
        assert log.topic == TRANSFER_EVENT_TOPIC
        assert log.address == tokens.address_of("WETH")
        assert log.data["from"] == ALICE
        assert log.data["to"] == BOB
        assert log.data["amount"] == 1

    def test_overdraft_rejected(self, tokens):
        with pytest.raises(InsufficientBalanceError):
            tokens.transfer("WETH", BOB, ALICE, 1)

    def test_negative_amounts_rejected(self, tokens):
        with pytest.raises(DefiError):
            tokens.transfer("WETH", ALICE, BOB, -1)
        with pytest.raises(DefiError):
            tokens.mint("WETH", ALICE, -1)


class TestForking:
    def test_fork_isolation(self, tokens):
        fork = tokens.fork()
        fork.transfer("WETH", ALICE, BOB, 10**17)
        assert tokens.balance_of("WETH", BOB) == 0
        assert fork.balance_of("WETH", BOB) == 10**17

    def test_commit(self, tokens):
        fork = tokens.fork()
        fork.transfer("WETH", ALICE, BOB, 10**17)
        fork.commit()
        assert tokens.balance_of("WETH", BOB) == 10**17

    def test_commit_root_rejected(self, tokens):
        with pytest.raises(DefiError):
            tokens.commit()

    def test_fork_sees_new_deployments(self, tokens):
        fork = tokens.fork()
        tokens.deploy("DAI")
        # Token deployments are shared (immutable registry level).
        assert fork.token("DAI").symbol == "DAI"
