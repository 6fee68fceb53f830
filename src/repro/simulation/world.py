"""The world simulator: a slot-by-slot post-merge Ethereum with PBS.

``build_world(config)`` wires the whole landscape; ``World.run()`` advances
it through the study window, producing the raw material the paper's
pipeline measures: a canonical chain with receipts and traces, beacon
records, relay data-API stores, mempool observations, and the sanctions
timeline.
"""

from __future__ import annotations

import datetime
import hashlib
from dataclasses import dataclass

import numpy as np

from ..beacon.builders import (
    ACTIVATION_DELAY_DAYS,
    MIN_BUILDER_DEPOSIT_WEI,
    BuilderRegistry,
    EpbsLedger,
)
from ..beacon.chain import BeaconBlockRecord, BeaconChain
from ..beacon.schedule import ProposerSchedule
from ..beacon.validator import ValidatorRegistry
from ..chain.chain import Chain
from ..chain.exec_cache import ExecutionCache
from ..chain.execution import ExecutionContext, ExecutionEngine
from ..chain.state import WorldState
from ..chain.transaction import (
    EthTransfer,
    SwapExact,
    TokenTransfer,
    Transaction,
    TransactionFactory,
)
from ..constants import (
    MAX_BLOCK_GAS,
    MERGE_BLOCK_NUMBER,
    MERGE_DATE,
    MERGE_SLOT,
)
from ..core.auction import SlotAuction, SlotOutcome
from ..core.builder import BlockBuilder
from ..core.context import SlotContext
from ..core.proposer import LocalBlockBuilder
from ..core.relay import Relay
from ..defi.registry import DefiProtocols
from ..errors import ConfigError
from ..mev.bundles import Bundle
from ..mev.liquidation import plan_liquidations
from ..mev.arbitrage import find_arbitrage_cycles, plan_cycle_arbitrage
from ..mev.searcher import Searcher, SlotView
from ..mempool.network import P2PNetwork
from ..mempool.observer import ObservationStore
from ..mempool.pool import SharedMempool
from ..mempool.private import PrivateOrderFlow
from ..perf.metrics import PerfRegistry
from ..sanctions.ofac import SanctionsList, build_ofac_timeline
from ..types import Address, derive_address, ether, gwei
from . import calibration
from .config import SimulationConfig
from .entities import (
    build_builders,
    build_defi,
    build_relays,
    build_searchers,
    build_validators,
    long_tail_start_day,
)
from .events import default_timeline
from .faults import apply_fault
from .sampling import WeightedPick
from .segments import SEGMENT_STREAM_SALT, SegmentSpec

_SECONDS_PER_DAY = 86_400
_MEMPOOL_TTL_SECONDS = 0.75 * _SECONDS_PER_DAY
_GENESIS_TIME = 1_663_224_179  # merge timestamp (2022-09-15 06:42:59 UTC)

# Candidate tokens for user ERC-20 transfers, sanctioned-actor token
# movements and new lending positions (each picked by an index draw).
_TRANSFER_TOKENS = ("USDC", "DAI", "USDT", "WBTC", "ALT1", "ALT2")
_SANCTIONED_TOKENS = ("USDC", "USDT", "DAI")
_COLLATERAL_TOKENS = ("WBTC", "WETH", "ALT1")
_DEBT_TOKENS = ("USDC", "DAI")

# User workload mix: swaps, then token transfers, the rest ETH transfers;
# independently, the share of user transactions sent as private flow.
_SWAP_TX_SHARE = 0.22
_TOKEN_TX_SHARE = 0.18
_PRIVATE_USER_TX_SHARE = 0.05
# Extra gas drawn per tx (lognormal) so blocks reach mainnet-like totals.
_EXTRA_GAS_MEAN = 320_000.0
_EXTRA_GAS_SIGMA = 0.6
# Share of swaps big enough to sandwich.
_VICTIM_SWAP_RATE = 0.32
# Per-slot chance the naive public mempool bots try a liquidation (and
# 0.8 of it for a cyclic arbitrage).
_PUBLIC_SEARCHER_SKILL = 0.35
# Daily top-ups: a holder below the floor gets the amount minted (WETH is
# refilled up to its target instead).
_USER_WETH_FLOOR, _USER_WETH_TARGET = ether(20), ether(40)
_USER_ETH_FLOOR, _USER_ETH_TOP_UP = ether(10), ether(30)
_USER_USDC_FLOOR, _USER_USDC_TOP_UP = 10_000 * 10**6, 40_000 * 10**6
_USER_DAI_FLOOR, _USER_DAI_TOP_UP = ether(10_000), ether(40_000)
_SEARCHER_ETH_FLOOR, _SEARCHER_ETH_TOP_UP = ether(500), ether(2_000)
_PUBLIC_BOT_ETH_FLOOR, _PUBLIC_BOT_ETH_TOP_UP = ether(100), ether(400)


@dataclass
class SlotRecord:
    """Ground-truth record of one proposed slot (tests and examples only).

    The measurement pipeline never reads these; it works off the collected
    datasets exactly as the paper does.
    """

    slot: int
    day: int
    # -1 when no execution payload became canonical this slot (ePBS
    # withheld/empty slots have a consensus record but no block).
    block_number: int
    mode: str
    winning_builder: str | None
    delivering_relays: tuple[str, ...]
    payment_wei: int
    claimed_wei: int
    # ePBS escrow settlement enforcing the committed bid (0 elsewhere).
    settled_wei: int = 0


class World:
    """A fully wired simulated world; call :meth:`run` to advance it.

    With ``segment`` given, the world is the epoch segment's independent
    sub-simulation: it covers only ``[segment.day_start, segment.day_end)``
    with absolute day/slot/block numbering, shares populations (derived
    from the root seed alone) with every sibling segment, and draws its
    dynamic randomness from streams derived from ``(seed, segment.index)``
    so segments never consume each other's draws.  Without ``segment``
    (or with the degenerate full-range segment) the world is bit-identical
    to the legacy unsegmented run.  A config whose plan has more than one
    segment runs only through :func:`repro.perf.sharding.run_sharded`, so
    one config never yields two digests.
    """

    def __init__(
        self,
        config: SimulationConfig,
        segment: "SegmentSpec | None" = None,
    ):
        if segment is None and config.num_segments > 1:
            raise ConfigError(
                f"segment_days={config.segment_days} splits the "
                f"{config.num_days}-day window into {config.num_segments} "
                "segments; run the config with repro.perf.sharding.run_sharded",
                field="segment_days",
            )
        self.config = config
        self.timeline = default_timeline()
        if segment is not None and segment.covers_all:
            segment = None  # degenerate plan: take the legacy path exactly
        self._day_start = segment.day_start if segment is not None else 0
        self._day_end = (
            segment.day_end if segment is not None else config.num_days
        )
        self._slot_start = self._day_start * config.blocks_per_day
        seed_seq = np.random.SeedSequence(config.seed)
        (
            seq_network,
            seq_entities,
            seq_oracle,
            seq_txgen,
            seq_searchers,
            seq_auction,
            seq_lending,
        ) = seed_seq.spawn(7)
        if segment is not None:
            # Per-segment dynamic streams: derived from the root seed and
            # the segment index only, so any process can run any segment
            # and draw the same sequence.  Population streams (network,
            # entities) stay root-derived: every segment sees the same
            # actors.
            (
                seq_oracle,
                seq_txgen,
                seq_searchers,
                seq_auction,
                seq_lending,
            ) = np.random.SeedSequence(
                [config.seed, SEGMENT_STREAM_SALT, segment.index]
            ).spawn(5)
        self._rng_oracle = np.random.default_rng(seq_oracle)
        self._rng_txgen = np.random.default_rng(seq_txgen)
        self._rng_searchers = np.random.default_rng(seq_searchers)
        self._rng_auction = np.random.default_rng(seq_auction)
        self._rng_lending = np.random.default_rng(seq_lending)
        rng_network = np.random.default_rng(seq_network)
        rng_entities = np.random.default_rng(seq_entities)

        # Substrates.
        self.network = P2PNetwork(rng_network, node_count=config.network_nodes)
        self.mempool = SharedMempool(self.network, ttl_seconds=_MEMPOOL_TTL_SECONDS)
        self.observations = ObservationStore.with_default_observers(self.network)
        self.private_flow = PrivateOrderFlow()

        self.defi: DefiProtocols = build_defi()
        self.oracle = self.defi.oracle
        self.state = WorldState()
        self.engine = ExecutionEngine()
        self.canonical_ctx = ExecutionContext(state=self.state, protocols=self.defi)
        # Segment block numbering derives from the slot offset: segments
        # are independent by construction, so segment N cannot know how
        # many slots segments < N missed.  Numbers stay globally unique
        # and ordered across the merged run.
        self.chain = Chain(first_block_number=MERGE_BLOCK_NUMBER + self._slot_start)
        self.tx_factory = TransactionFactory()

        # Performance machinery (never changes simulated outcomes).
        self.perf = PerfRegistry()

        # Consensus layer.
        self.validators: ValidatorRegistry
        self.validators, self._profiles, self._adoption = build_validators(
            config, rng_entities
        )
        self.schedule = ProposerSchedule(self.validators, seed=config.seed)
        self.beacon = BeaconChain()

        # PBS layer.
        self.relays: dict[str, Relay] = build_relays(config)
        self.builders: dict[str, BlockBuilder] = build_builders(
            config, self.timeline, rng_entities, config.network_nodes
        )
        self.searchers: list[Searcher] = build_searchers()
        self.local_builder = LocalBlockBuilder(
            mempool_node=int(rng_entities.integers(0, config.network_nodes)),
            # Hobbyist nodes snapshot the mempool early and miss the most
            # recent quarter of arrivals (smaller, emptier non-PBS blocks).
            snapshot_lead_seconds=0.25 * config.seconds_per_simulated_slot,
        )
        # Long-tail builder start days (needed for the ePBS deposit
        # schedule below, and the daily flow weights).
        self._tail_names = sorted(
            name for name in self.builders if name.startswith("builder-")
        )
        self._tail_start = {
            name: long_tail_start_day(index, config.num_days)
            for index, name in enumerate(self._tail_names)
        }
        # Builder routing, rebuilt by each day's step: the order-flow pick
        # over builders with flow, each named builder's relay-route pick,
        # and the live relay pool every long-tail builder submits to.
        self._flow_pick: WeightedPick | None = None
        self._route_picks: dict[str, WeightedPick] = {}
        self._tail_relays: tuple[str, ...] = ()

        # Regime wiring: who runs the per-slot auction.
        self.builder_registry: BuilderRegistry | None = None
        self.epbs_ledger: EpbsLedger | None = None
        if config.regime == "epbs":
            from ..core.epbs import EnshrinedPBSAuction

            self.epbs_ledger = EpbsLedger()
            self.builder_registry = BuilderRegistry(
                self.state, ledger=self.epbs_ledger
            )
            self._schedule_builder_deposits()
            self.auction = EnshrinedPBSAuction(
                self.builders,
                self.local_builder,
                registry=self.builder_registry,
                ledger=self.epbs_ledger,
            )
        elif config.regime == "local":
            # Every proposer self-builds: no relays, no builder market.
            self.auction = SlotAuction({}, {}, self.local_builder)
        else:
            self.auction = SlotAuction(
                self.relays, self.builders, self.local_builder
            )

        # Sanctions.
        self.sanctions: SanctionsList = build_ofac_timeline()
        self._sanctioned_pool: list[Address] = [
            entry.address for entry in self.sanctions.entries()
        ]

        # Populations.
        self.users = [
            derive_address("user", index) for index in range(config.num_users)
        ]
        self._binance_hot_wallet = derive_address("exchange", "binance-hot")
        self._ankr_deposit = derive_address("exchange", "ankr-deposit")
        self._borrower_counter = 0
        # Swap-eligible pool ids; built on first use (pools are static).
        self._swap_pool_ids: tuple[str, ...] | None = None
        # (pool set, arbitrage cycles through it); built on first use.
        self._cached_cycles: tuple | None = None

        # Ground truth for tests.
        self.slot_records: list[SlotRecord] = []
        self._has_run = False

        self._fund_accounts()
        self._seed_lending_positions(config.num_lending_positions)

        # Segment worlds fast-forward the builder registry through the
        # days before their window (deposits and churned activations are
        # pure functions of the schedule and the day), with ledger
        # recording suppressed so each segment publishes only its own
        # window's events.
        if self.builder_registry is not None and self._day_start > 0:
            self.builder_registry.ledger = None
            for day in range(0, self._day_start):
                self.builder_registry.process_day(day)
            self.builder_registry.ledger = self.epbs_ledger

        for spec in config.faults:
            apply_fault(self, spec)

    # ------------------------------------------------------------------
    # Setup helpers
    # ------------------------------------------------------------------

    def _schedule_builder_deposits(self) -> None:
        """The ePBS deposit schedule: who stakes, and when.

        The named roster is the genesis builder set (deposits escrow on
        day 0, activation is immediate).  Long-tail builders deposit
        ahead of their market-entry day so the activation-queue delay
        lands them in the active set roughly when their order flow
        starts; the churn limit still rate-limits bursts.  The schedule
        is a pure function of the config, so every segment derives the
        same one.
        """
        registry = self.builder_registry
        assert registry is not None
        for name, builder in self.builders.items():
            if name.startswith("builder-"):
                continue
            registry.submit_deposit(
                name,
                pubkey=builder.pubkeys[0],
                address=builder.address,
                amount_wei=MIN_BUILDER_DEPOSIT_WEI,
                day=0,
                genesis=True,
            )
        for name in self._tail_names:
            builder = self.builders[name]
            deposit_day = max(0, self._tail_start[name] - ACTIVATION_DELAY_DAYS)
            registry.submit_deposit(
                name,
                pubkey=builder.pubkeys[0],
                address=builder.address,
                amount_wei=MIN_BUILDER_DEPOSIT_WEI,
                day=deposit_day,
            )

    def _fund_accounts(self) -> None:
        tokens = self.defi.tokens
        for user in self.users:
            self.state.mint(user, ether(40))
            tokens.mint("WETH", user, 40 * 10**18)
            tokens.mint("USDC", user, 50_000 * 10**6)
            tokens.mint("DAI", user, 50_000 * 10**18)
            tokens.mint("USDT", user, 20_000 * 10**6)
            tokens.mint("WBTC", user, 2 * 10**8)
            tokens.mint("ALT1", user, 800 * 10**18)
            tokens.mint("ALT2", user, 3_000 * 10**18)
            tokens.mint("TRON", user, 200_000 * 10**18)
        for searcher in self.searchers:
            self.state.mint(searcher.address, ether(2_000))
            tokens.mint("WETH", searcher.address, 20_000 * 10**18)
            tokens.mint("USDC", searcher.address, 10_000_000 * 10**6)
            tokens.mint("DAI", searcher.address, 10_000_000 * 10**18)
            tokens.mint("USDT", searcher.address, 5_000_000 * 10**6)
            tokens.mint("WBTC", searcher.address, 200 * 10**8)
        for builder in self.builders.values():
            self.state.mint(builder.address, ether(4_000))
        for address in self._sanctioned_pool:
            self.state.mint(address, ether(300))
            tokens.mint("USDC", address, 500_000 * 10**6)
            tokens.mint("USDT", address, 300_000 * 10**6)
            tokens.mint("DAI", address, 300_000 * 10**18)
        self.state.mint(self._binance_hot_wallet, ether(50_000))
        # A public keeper account used by non-PBS-era style mempool bots.
        self._public_bot = derive_address("bot", "public-keeper")
        self.state.mint(self._public_bot, ether(500))
        tokens.mint("WETH", self._public_bot, 5_000 * 10**18)
        tokens.mint("USDC", self._public_bot, 2_000_000 * 10**6)
        tokens.mint("DAI", self._public_bot, 2_000_000 * 10**18)

    def _top_up_users(self) -> None:
        """Replenish user inventories daily (exchange withdrawals).

        Without inflow, heavy sellers run out of WETH after a few weeks and
        the victim-swap supply — and with it all MEV — dries up, which the
        real market does not do.
        """
        token_balance, token_mint = self.defi.tokens.balance_of, self.defi.tokens.mint
        eth_balance, eth_mint = self.state.balance_of, self.state.mint
        for user in self.users:
            held = token_balance("WETH", user)
            if held < _USER_WETH_FLOOR:
                token_mint("WETH", user, _USER_WETH_TARGET - held)
            if eth_balance(user) < _USER_ETH_FLOOR:
                eth_mint(user, _USER_ETH_TOP_UP)
            if token_balance("USDC", user) < _USER_USDC_FLOOR:
                token_mint("USDC", user, _USER_USDC_TOP_UP)
            if token_balance("DAI", user) < _USER_DAI_FLOOR:
                token_mint("DAI", user, _USER_DAI_TOP_UP)
        for searcher in self.searchers:
            # Professional searchers rebalance their gas/tip inventory.
            if eth_balance(searcher.address) < _SEARCHER_ETH_FLOOR:
                eth_mint(searcher.address, _SEARCHER_ETH_TOP_UP)
        if eth_balance(self._public_bot) < _PUBLIC_BOT_ETH_FLOOR:
            eth_mint(self._public_bot, _PUBLIC_BOT_ETH_TOP_UP)

    def _seed_lending_positions(self, count: int) -> None:
        for _ in range(count):
            self._open_lending_position()

    def _open_lending_position(self) -> None:
        rng = self._rng_lending
        market_id = "aave" if rng.random() < 0.6 else "compound"
        market = self.defi.markets[market_id]
        borrower = derive_address("borrower", self._borrower_counter)
        self._borrower_counter += 1
        collateral_token = _COLLATERAL_TOKENS[
            int(rng.integers(0, len(_COLLATERAL_TOKENS)))
        ]
        debt_token = _DEBT_TOKENS[int(rng.integers(0, len(_DEBT_TOKENS)))]
        collateral_value_eth = float(rng.uniform(4.0, 40.0))
        decimals_c = self.defi.tokens.token(collateral_token).decimals
        decimals_d = self.defi.tokens.token(debt_token).decimals
        price_c = self.oracle.price_in_eth(collateral_token)
        price_d = self.oracle.price_in_eth(debt_token)
        collateral_amount = int(collateral_value_eth / price_c * 10**decimals_c)
        # Health factor between ~1.02 and ~1.35 at opening.
        target_health = float(rng.uniform(1.12, 1.55))
        debt_value_eth = (
            collateral_value_eth * market.liquidation_threshold / target_health
        )
        debt_amount = int(debt_value_eth / price_d * 10**decimals_d)
        if collateral_amount <= 0 or debt_amount <= 0:
            return
        market.open_position(
            borrower, collateral_token, collateral_amount, debt_token, debt_amount
        )

    # ------------------------------------------------------------------
    # Daily updates
    # ------------------------------------------------------------------

    def _advance_day(self, day: int) -> None:
        date = MERGE_DATE + datetime.timedelta(days=day)
        if day > 0:
            self.oracle.advance_day(
                self._rng_oracle,
                volatility=0.028,
                volatility_multipliers=self.timeline.oracle_vol_multipliers(day),
            )
            if day == self.timeline.usdc_depeg_day:
                self.oracle.set_price("USDC", 0.88)
            if day == self.timeline.usdc_depeg_day + 2:
                self.oracle.set_price("USDC", 0.99)
        self._top_up_users()
        refill = self.config.lending_refill_per_day
        if refill < 0:
            refill = 0.022 * self.config.blocks_per_day
        whole = int(refill)
        for _ in range(whole):
            self._open_lending_position()
        if self._rng_lending.random() < refill - whole:
            self._open_lending_position()
        # The builder registry processes the day's deposits/activations.
        if self.builder_registry is not None:
            self.builder_registry.process_day(day)
        # Refresh relay sanctions views (only the mev_boost regime has
        # relays).
        if self.config.regime == "mev_boost":
            for relay in self.relays.values():
                relay.refresh_sanctions_view(self.sanctions, date)
        # Builder order flow and relay routing for the day.
        flow = {
            name: calibration.builder_flow_weight(name, day)
            for name in self.builders
            if not name.startswith("builder-")
        }
        for name in self._tail_names:
            flow[name] = 0.001 if self._tail_start[name] <= day else 0.0
        with_flow = [name for name, weight in flow.items() if weight > 0]
        self._flow_pick = (
            WeightedPick(with_flow, [flow[name] for name in with_flow])
            if with_flow
            else None
        )
        self._tail_relays = tuple(
            relay
            for relay in calibration.LONG_TAIL_RELAY_POOL
            if calibration.relay_is_live(relay, day)
        )
        self._route_picks = {}
        for name in self.builders:
            if name.startswith("builder-"):
                continue
            weights = calibration.builder_relay_weights(name, day)
            if weights:
                self._route_picks[name] = WeightedPick(
                    list(weights), list(weights.values())
                )

    def relay_menu(self, validator_index: int, day: int) -> tuple[str, ...]:
        """The relays a validator's MEV-Boost queries on ``day``.

        The validator's profile menu once it has adopted MEV-Boost;
        empty before that, and always outside the ``mev_boost`` regime:
        under ePBS the protocol runs every proposer's auction, and under
        ``local`` everyone self-builds.
        """
        if (
            self.config.regime != "mev_boost"
            or self._adoption[validator_index] > day
        ):
            return ()
        return calibration.relay_menu(self._profiles[validator_index], day)

    # ------------------------------------------------------------------
    # Transaction generation
    # ------------------------------------------------------------------

    def _priority_fee(self, rng: np.random.Generator) -> int:
        return int(gwei(1) * float(rng.lognormal(mean=0.7, sigma=0.9)))

    def _willingness_to_pay(self, day: int, rng: np.random.Generator) -> int:
        """Absolute per-gas willingness to pay, in wei.

        Demand is elastic in the base fee: users whose willingness falls
        below the current base fee simply do not transact, which is what
        stabilizes EIP-1559 around the gas target.
        """
        reference = gwei(20) * calibration.tx_volume_multiplier(day)
        return int(reference * float(rng.lognormal(mean=0.0, sigma=0.8)))

    def _max_fee(self, base_fee: int, rng: np.random.Generator, priority: int) -> int:
        headroom = float(rng.uniform(1.05, 2.5))
        return max(int(base_fee * headroom) + priority, priority)

    def _extra_gas(self, rng: np.random.Generator) -> int:
        value = float(
            rng.lognormal(
                mean=np.log(_EXTRA_GAS_MEAN),
                sigma=_EXTRA_GAS_SIGMA,
            )
        )
        return int(min(value, 2_500_000))

    def _generate_user_tx(
        self, day: int, base_fee: int, sophistication: float
    ) -> tuple[Transaction, bool] | None:
        """One user transaction, or None if the sender is priced out."""
        rng = self._rng_txgen
        sender = self.users[int(rng.integers(0, len(self.users)))]
        roll = float(rng.random())
        wtp = self._willingness_to_pay(day, rng)
        if wtp < base_fee:
            return None  # demand destruction under a high base fee
        priority = min(self._priority_fee(rng), wtp)
        max_fee = wtp
        wants_private = bool(rng.random() < _PRIVATE_USER_TX_SHARE)

        if roll < _SWAP_TX_SHARE:
            tx = self._make_swap_tx(
                sender, max_fee, priority, sophistication, rng
            )
        elif roll < _SWAP_TX_SHARE + _TOKEN_TX_SHARE:
            token = _TRANSFER_TOKENS[int(rng.integers(0, len(_TRANSFER_TOKENS)))]
            recipient = self.users[int(rng.integers(0, len(self.users)))]
            balance = self.defi.tokens.balance_of(token, sender)
            amount = max(1, int(balance * float(rng.uniform(0.001, 0.02))))
            tx = self.tx_factory.create(
                sender,
                0,
                [TokenTransfer(token, recipient, amount)],
                max_fee,
                priority,
                extra_gas=self._extra_gas(rng),
            )
        else:
            recipient = self.users[int(rng.integers(0, len(self.users)))]
            value = ether(float(rng.uniform(0.01, 2.0)))
            tx = self.tx_factory.create(
                sender,
                0,
                [EthTransfer(recipient, value)],
                max_fee,
                priority,
                extra_gas=self._extra_gas(rng),
            )
        return tx, wants_private

    def _make_swap_tx(
        self,
        sender: Address,
        max_fee: int,
        priority: int,
        sophistication: float,
        rng: np.random.Generator,
    ) -> Transaction:
        # Pools are static after world setup, so the candidates are listed
        # only once.
        pool_ids = self._swap_pool_ids
        if pool_ids is None:
            pool_ids = tuple(
                pool_id
                for pool_id in self.defi.amm.pool_ids()
                if "TRON" not in pool_id
            )
            self._swap_pool_ids = pool_ids
        pool_id = pool_ids[int(rng.integers(0, len(pool_ids)))]
        pool = self.defi.amm.pool(pool_id)
        token_in = pool.spec.token0 if rng.random() < 0.5 else pool.spec.token1
        is_victim = bool(rng.random() < _VICTIM_SWAP_RATE)
        if token_in == "WETH":
            whole = (
                float(rng.uniform(0.8, 3.2)) * sophistication
                if is_victim
                else float(rng.uniform(0.05, 1.2))
            )
        else:
            reserve_in, _ = pool.reserves_for(token_in)
            whole_units = reserve_in / 10**self.defi.tokens.token(token_in).decimals
            fraction = (
                float(rng.uniform(0.002, 0.009))
                if is_victim
                else float(rng.uniform(0.0001, 0.001))
            )
            whole = whole_units * fraction
        amount_in = int(whole * 10**self.defi.tokens.token(token_in).decimals)
        amount_in = min(amount_in, self.defi.tokens.balance_of(token_in, sender))
        if amount_in <= 0:
            amount_in = 1
        quote = pool.quote_out(token_in, amount_in) if amount_in > 0 else 0
        slippage = float(rng.uniform(0.004, 0.018))
        min_out = int(quote * (1 - slippage))
        return self.tx_factory.create(
            sender,
            0,
            [SwapExact(pool_id, token_in, amount_in, min_out)],
            max_fee,
            priority,
            extra_gas=self._extra_gas(rng),
        )

    def _generate_sanctioned_tx(self, base_fee: int) -> Transaction:
        rng = self._rng_txgen
        priority = self._priority_fee(rng)
        max_fee = self._max_fee(base_fee, rng, priority)
        sanctioned = self._sanctioned_pool[
            int(rng.integers(0, len(self._sanctioned_pool)))
        ]
        user = self.users[int(rng.integers(0, len(self.users)))]
        roll = float(rng.random())
        if roll < 0.1:
            # Rare TRON token movement; reportable once TRON is designated.
            other = self.users[int(rng.integers(0, len(self.users)))]
            amount = int(float(rng.uniform(1_000, 80_000)) * 10**18)
            held = self.defi.tokens.balance_of("TRON", user)
            sender, actions = user, [
                TokenTransfer("TRON", other, min(amount, max(1, held)))
            ]
        elif roll < 0.4:
            sender, actions = sanctioned, [EthTransfer(user, ether(float(rng.uniform(0.5, 20.0))))]
        elif roll < 0.65:
            sender, actions = user, [EthTransfer(sanctioned, ether(float(rng.uniform(0.5, 10.0))))]
        else:
            token = _SANCTIONED_TOKENS[
                int(rng.integers(0, len(_SANCTIONED_TOKENS)))
            ]
            decimals = self.defi.tokens.token(token).decimals
            amount = int(float(rng.uniform(1_000, 50_000)) * 10**decimals)
            if roll < 0.85:
                sender, actions = sanctioned, [TokenTransfer(token, user, amount)]
            else:
                held = self.defi.tokens.balance_of(token, user)
                sender, actions = user, [
                    TokenTransfer(token, sanctioned, min(amount, max(1, held)))
                ]
        return self.tx_factory.create(
            sender,
            0,
            actions,
            max_fee,
            priority,
            extra_gas=self._extra_gas(rng),
        )

    def _generate_public_bot_txs(self, base_fee: int) -> list[Transaction]:
        """Naive mempool bots: public-PGA-style arbitrage and liquidations."""
        rng = self._rng_txgen
        txs: list[Transaction] = []
        if rng.random() < _PUBLIC_SEARCHER_SKILL:
            plans = plan_liquidations(
                self.defi.markets, self.oracle, self.defi.tokens,
                min_bonus_wei=ether(0.01),
            )
            if plans:
                plan = plans[0]
                held = self.defi.tokens.balance_of(plan.debt_token, self._public_bot)
                if held >= plan.debt_amount:
                    bid_per_gas = max(
                        gwei(2),
                        int(plan.expected_bonus_wei * 0.5 / 300_000),
                    )
                    from ..chain.transaction import LiquidatePosition

                    txs.append(
                        self.tx_factory.create(
                            self._public_bot,
                            0,
                            [LiquidatePosition(plan.market_id, plan.borrower)],
                            base_fee * 2 + bid_per_gas,
                            bid_per_gas,
                        )
                    )
        if rng.random() < _PUBLIC_SEARCHER_SKILL * 0.8:
            cycles = self._arb_cycles()
            best_plan = None
            for cycle in cycles:
                plan = plan_cycle_arbitrage(
                    self.defi.amm,
                    cycle,
                    max_input=self.defi.tokens.balance_of("WETH", self._public_bot),
                    min_profit=int(0.01 * 10**18),
                )
                if plan is not None and (
                    best_plan is None or plan.profit > best_plan.profit
                ):
                    best_plan = plan
            if best_plan is not None:
                gas_estimate = 120_000 * len(best_plan.hops) + 21_000
                bid_per_gas = max(gwei(2), int(best_plan.profit * 0.5 / gas_estimate))
                actions = [
                    SwapExact(pool_id, token_in, amount_in, amount_out)
                    for pool_id, token_in, amount_in, amount_out in best_plan.hops
                ]
                txs.append(
                    self.tx_factory.create(
                        self._public_bot,
                        0,
                        actions,
                        base_fee * 2 + bid_per_gas,
                        bid_per_gas,
                    )
                )
        return txs

    def _arb_cycles(self) -> list[tuple[str, ...]]:
        # Keyed by the AMM's pool set so newly deployed pools invalidate
        # the cache and arbitrage bots see cycles through them.
        signature = tuple(self.defi.amm.pool_ids())
        cached = self._cached_cycles
        if cached is None or cached[0] != signature:
            cached = (signature, find_arbitrage_cycles(self.defi.amm))
            self._cached_cycles = cached
        return cached[1]

    # ------------------------------------------------------------------
    # The slot loop
    # ------------------------------------------------------------------

    def run(self) -> "World":
        """Advance the world through its day range (segment or full window).

        Day, slot and timestamp arithmetic use absolute indices, so a
        segment world covering ``[40, 80)`` numbers its slots exactly as
        the same days of a full-window run would.
        """
        if self._has_run:
            return self
        self._has_run = True
        config = self.config
        slot_seconds = config.seconds_per_simulated_slot
        with self.perf.timer("slot_loop"):
            for day in range(self._day_start, self._day_end):
                with self.perf.timer("day_step"):
                    self._advance_day(day)
                date = MERGE_DATE + datetime.timedelta(days=day)
                for slot_in_day in range(config.blocks_per_day):
                    global_index = day * config.blocks_per_day + slot_in_day
                    slot = MERGE_SLOT + global_index
                    slot_time = (
                        _GENESIS_TIME
                        + day * _SECONDS_PER_DAY
                        + slot_in_day * slot_seconds
                    )
                    self._run_slot(slot, day, date, slot_time)
        return self

    def _run_slot(
        self, slot: int, day: int, date: datetime.date, slot_time: float
    ) -> None:
        config = self.config
        rng = self._rng_auction
        proposer = self.schedule.proposer_for_slot(slot)
        sophistication = calibration.builder_sophistication(day)
        intensity = self.timeline.mev_intensity(day)
        base_fee = self.chain.next_base_fee()

        with self.perf.timer("workload"):
            self._inject_workload(
                day, slot_time, base_fee, sophistication, intensity
            )

        if rng.random() < config.missed_slot_rate:
            self.beacon.append(
                BeaconBlockRecord(
                    slot=slot,
                    date=date,
                    proposer_index=proposer.index,
                    proposer_entity=proposer.entity,
                    execution_block_hash=None,
                )
            )
            return

        # Register the proposer with its relays (relay-API dataset); each
        # relay keeps a validator's first registration only.
        proposer_relays = self.relay_menu(proposer.index, day)
        for relay_name in proposer_relays:
            relay = self.relays.get(relay_name)
            if relay is not None:
                relay.register_validator(proposer, slot)

        with self.perf.timer("bundle_search"):
            bundles_by_builder = self._collect_bundles(slot, base_fee, slot_time)
        active_builders = self._pick_active_builders(day)

        # One shared execution cache per slot: canonical state and base fee
        # are fixed within a slot, so builders replaying the same candidates
        # hit verified cached outcomes instead of re-executing.  Only
        # builders use it; the proposer's own block executes directly.
        exec_cache = ExecutionCache()

        ctx = SlotContext(
            slot=slot,
            day=day,
            date=date,
            timestamp=int(slot_time),
            block_number=self.chain.next_block_number,
            parent_hash=self.chain.parent_hash,
            base_fee=base_fee,
            gas_limit=MAX_BLOCK_GAS,
            canonical_ctx=self.canonical_ctx,
            engine=self.engine,
            mempool=self.mempool,
            private_flow=self.private_flow,
            bundles_by_builder=bundles_by_builder,
            sanctions=self.sanctions,
            rng=rng,
            tx_factory=self.tx_factory,
            proposer_relays=proposer_relays,
            min_bid_wei=ether(config.min_bid_eth),
            active_builders=active_builders,
            build_cutoff_time=slot_time,
            exec_cache=exec_cache,
            perf=self.perf,
        )
        with self.perf.timer("auction"):
            outcome = self.auction.run(ctx, proposer)
        if exec_cache is not None:
            self.perf.add("exec_cache_hits", exec_cache.stats.hits)
            self.perf.add("exec_cache_misses", exec_cache.stats.misses)
        self._apply_outcome(outcome, ctx, date)

    def _inject_workload(
        self,
        day: int,
        slot_time: float,
        base_fee: int,
        sophistication: float,
        intensity: float,
    ) -> None:
        config = self.config
        rng = self._rng_txgen
        window = config.seconds_per_simulated_slot
        mean_txs = (
            config.mean_user_txs_per_slot
            * calibration.tx_volume_multiplier(day)
            * (1.0 + 0.25 * (intensity - 1.0))
        )
        count = int(rng.poisson(mean_txs))
        # Crisis days (FTX, USDC depeg) bring larger, more hurried trades —
        # the MEV supply behind Figure 10's profit spikes.
        victim_boost = sophistication * intensity**0.6
        for _ in range(count):
            generated = self._generate_user_tx(day, base_fee, victim_boost)
            if generated is None:
                continue
            tx, wants_private = generated
            created = slot_time - float(rng.uniform(0.0, window))
            if wants_private:
                recipients = self._sample_builders_by_weight(1 + int(rng.random() < 0.4))
                if recipients:
                    self.private_flow.deliver(tx, recipients, created)
                    continue
            origin_node = self.network.random_node(rng)
            entry = self.mempool.broadcast(tx, origin_node, created)
            self.observations.record_broadcast(entry)

        if rng.random() < config.sanctioned_tx_rate:
            tx = self._generate_sanctioned_tx(base_fee)
            origin_node = self.network.random_node(rng)
            entry = self.mempool.broadcast(
                tx, origin_node, slot_time - float(rng.uniform(0.0, window))
            )
            self.observations.record_broadcast(entry)

        for tx in self._generate_public_bot_txs(base_fee):
            origin_node = self.network.random_node(rng)
            # Public bots raced the previous block: their transactions are
            # old enough for even slow local proposers to have seen them.
            entry = self.mempool.broadcast(
                tx, origin_node, slot_time - float(rng.uniform(0.3, 0.9)) * window
            )
            self.observations.record_broadcast(entry)

        if self.timeline.in_binance_ankr_window(day):
            for _ in range(int(rng.integers(2, 6))):
                priority = self._priority_fee(rng)
                tx = self.tx_factory.create(
                    self._binance_hot_wallet,
                    0,
                    [EthTransfer(self._ankr_deposit, ether(float(rng.uniform(5, 60))))],
                    self._max_fee(base_fee, rng, priority),
                    priority,
                )
                self.private_flow.deliver(tx, ("AnkrPool",), slot_time - 1.0)

    def _collect_bundles(
        self, slot: int, base_fee: int, slot_time: float
    ) -> dict[str, list[Bundle]]:
        rng = self._rng_searchers
        pending = [
            entry.tx
            for entry in self.mempool.pending()
            if entry.broadcast_time <= slot_time
        ]
        view = SlotView(
            slot=slot,
            base_fee=base_fee,
            state=self.state,
            amm=self.defi.amm,
            markets=self.defi.markets,
            oracle=self.oracle,
            tokens=self.defi.tokens,
            mempool_txs=pending,
            rng=rng,
            tx_factory=self.tx_factory,
        )
        routed: dict[str, list[Bundle]] = {}
        from ..mev.bundles import KIND_SANDWICH

        for searcher in self.searchers:
            for bundle in searcher.find_bundles(view):
                targets = set(
                    self._sample_builders_by_weight(2 + int(rng.random() < 0.6))
                )
                if bundle.kind == KIND_SANDWICH and rng.random() < 0.2:
                    # Despite its relay's "ethical" branding, the bloXroute
                    # pipeline keeps receiving front-running flow — which is
                    # exactly how the paper finds 2,002 sandwiches slipping
                    # through the filter.
                    targets.add("bloXroute (E)")
                for target in sorted(targets):
                    routed.setdefault(target, []).append(bundle)
        return routed

    def _sample_builders_by_weight(self, count: int) -> tuple[str, ...]:
        if self._flow_pick is None:
            return ()
        return self._flow_pick.choose(self._rng_searchers, count)

    def _pick_active_builders(self, day: int) -> dict[str, tuple[str, ...]]:
        """This slot's active builders, in build order, with their relays."""
        rng = self._rng_auction
        if self._flow_pick is None:
            return {}
        active = list(
            self._flow_pick.choose(rng, self.config.max_active_builders_per_slot)
        )
        # Builders with a scripted event today always show up to work —
        # the incidents happened, so their actors must be present.
        for name, builder in self.builders.items():
            if name in active:
                continue
            if (
                day in builder.scripted_mispromise
                or day in builder.timestamp_bug_days
                or day in builder.claim_inflation
                or day in builder.withhold_claims
                or day in builder.renege_claims
            ):
                active.append(name)
        # Named builders submit to a per-slot sampled subset of their relay
        # routes (none without routes); long-tail builders to the day's
        # whole live pool.
        routes: dict[str, tuple[str, ...]] = {}
        for name in active:
            pick = self._route_picks.get(name)
            if pick is not None:
                route = tuple(sorted(pick.choose(rng, 1 + int(rng.random() < 0.25))))
            elif name.startswith("builder-"):
                route = self._tail_relays
            else:
                route = ()
            # The exploit requires submitting to the relays whose
            # validation the inflated claims abuse (Manifold in the paper's
            # incident; scenarios can target any relay), routed or not.
            inflated = self.builders[name].claim_inflation.get(day)
            if inflated:
                route = tuple(sorted({*route, *inflated}))
            routes[name] = route
        return routes

    def _apply_outcome(
        self, outcome: SlotOutcome, ctx: SlotContext, date: datetime.date
    ) -> None:
        if outcome.block is None:
            # ePBS slot whose execution payload never became canonical
            # (withheld, or rejected by the payload-timeliness committee):
            # consensus records the slot, the chain gets no block, and the
            # committed bid was already charged from escrow on canonical
            # state.  The discarded speculative fork is simply dropped.
            submission = outcome.winning_submission
            self.beacon.append(
                BeaconBlockRecord(
                    slot=outcome.slot,
                    date=date,
                    proposer_index=outcome.proposer.index,
                    proposer_entity=outcome.proposer.entity,
                    execution_block_hash=None,
                    payload_withheld=outcome.payload_withheld,
                )
            )
            self.mempool.expire(ctx.build_cutoff_time)
            self.slot_records.append(
                SlotRecord(
                    slot=outcome.slot,
                    day=ctx.day,
                    block_number=-1,
                    mode=outcome.mode,
                    winning_builder=(
                        submission.builder_name if submission else None
                    ),
                    delivering_relays=(),
                    payment_wei=0,
                    claimed_wei=outcome.bid_wei,
                    settled_wei=outcome.settled_shortfall_wei,
                )
            )
            return
        outcome.speculative_ctx.commit()
        self.chain.append(outcome.block, outcome.result)
        self.beacon.append(
            BeaconBlockRecord(
                slot=outcome.slot,
                date=date,
                proposer_index=outcome.proposer.index,
                proposer_entity=outcome.proposer.entity,
                execution_block_hash=outcome.block.block_hash,
            )
        )
        included = [tx.tx_hash for tx in outcome.block.transactions]
        self.mempool.remove_included(included)
        self.private_flow.remove_included(included)
        self.mempool.expire(ctx.build_cutoff_time)
        submission = outcome.winning_submission
        winner = submission.builder_name if submission else None
        for name, builder in self.builders.items():
            fired = builder.mispromise_fired
            if fired is None:
                continue
            builder.mispromise_fired = None
            if winner != name:
                # The mispriced bid lost this slot's auction; re-arm so the
                # documented incident still lands on chain.
                _, claimed, paid = fired
                builder.scripted_mispromise[ctx.day] = (claimed, paid)
        self.slot_records.append(
            SlotRecord(
                slot=outcome.slot,
                day=ctx.day,
                block_number=outcome.block.number,
                mode=outcome.mode,
                winning_builder=submission.builder_name if submission else None,
                delivering_relays=outcome.delivering_relays,
                payment_wei=submission.payment_wei if submission else 0,
                # The claim the proposer actually saw (relay-specific
                # overrides included — the Manifold exploit is visible here).
                claimed_wei=(
                    max(
                        (submission.claimed_for(relay)
                         for relay in outcome.delivering_relays),
                        default=submission.claimed_value_wei,
                    )
                    if submission
                    else 0
                ),
                settled_wei=outcome.settled_shortfall_wei,
            )
        )


    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------

    def digest(self) -> str:
        """A stable fingerprint of the simulated outcome.

        Covers the full chain (headers, receipts, logs, traces, fee
        accounting), the final ETH/token/AMM state, and the slot records.
        Two runs of the same config and seed must produce equal digests,
        and so must a run in which no slot gets an execution cache — which
        the determinism regression tests assert.
        """
        hasher = hashlib.sha256()
        hasher.update(self.chain.digest().encode())
        state = self.state
        for address, balance in sorted(state._balances.items()):
            hasher.update(f"b|{address}|{balance}".encode())
        for address, nonce in sorted(state._nonces.items()):
            hasher.update(f"n|{address}|{nonce}".encode())
        hasher.update(f"m|{state._minted_wei}|{state._burned_wei}".encode())
        for key, balance in sorted(self.defi.tokens._balances.items()):
            hasher.update(f"t|{key}|{balance}".encode())
        for pool_id, reserves in sorted(self.defi.amm._reserves.items()):
            hasher.update(f"r|{pool_id}|{reserves}".encode())
        for record in self.slot_records:
            hasher.update(
                f"s|{record.slot}|{record.mode}|{record.winning_builder}|"
                f"{record.payment_wei}|{record.claimed_wei}|"
                f"{record.settled_wei}".encode()
            )
        return hasher.hexdigest()


def build_world(config: SimulationConfig | None = None) -> World:
    """Create (but do not run) a world from a config."""
    return World(config or SimulationConfig())
