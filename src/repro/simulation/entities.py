"""The concrete PBS landscape of the measurement window.

Builds the eleven relays with their Table 2/3 identities and policies, the
named builder roster of Table 5 (plus the long tail that brings the total
to 133), the staking-pool validator population, the searcher ecosystem,
and the DeFi universe (tokens, pools, lending markets) that generates MEV.
"""

from __future__ import annotations

import numpy as np

from ..beacon.validator import ValidatorRegistry
from ..core.builder import (
    BlockBuilder,
    FixedMargin,
    Proportional,
    Subsidizer,
)
from ..core.policies import (
    BuilderAccess,
    CensorshipPolicy,
    MevFilterPolicy,
    RelayPolicy,
)
from ..core.relay import Relay
from ..defi.lending import LendingMarket
from ..defi.oracle import PriceOracle
from ..defi.registry import DefiProtocols
from ..mev.searcher import (
    ArbitrageSearcher,
    LiquidationSearcher,
    SandwichSearcher,
    Searcher,
)
from ..types import derive_address, derive_pubkey, ether
from .config import SimulationConfig
from .events import Timeline
from .sampling import WeightedPick

# ---------------------------------------------------------------------------
# Relays (Tables 2 and 3)
# ---------------------------------------------------------------------------

RELAY_SPECS: tuple[tuple[str, str, str, BuilderAccess, CensorshipPolicy, MevFilterPolicy], ...] = (
    ("Aestus", "https://aestus.live", "MEV Boost",
     BuilderAccess.PERMISSIONLESS, CensorshipPolicy.NONE, MevFilterPolicy.NONE),
    ("Blocknative", "https://builder-relay-mainnet.blocknative.com", "Dreamboat",
     BuilderAccess.INTERNAL, CensorshipPolicy.OFAC_COMPLIANT, MevFilterPolicy.NONE),
    ("bloXroute (E)", "https://bloxroute.ethical.blxrbdn.com", "MEV Boost",
     BuilderAccess.INTERNAL_EXTERNAL, CensorshipPolicy.NONE,
     MevFilterPolicy.FRONTRUNNING),
    ("bloXroute (M)", "https://bloxroute.max-profit.blxrbdn.com", "MEV Boost",
     BuilderAccess.INTERNAL_EXTERNAL, CensorshipPolicy.NONE, MevFilterPolicy.NONE),
    ("bloXroute (R)", "https://bloxroute.regulated.blxrbdn.com", "MEV Boost",
     BuilderAccess.INTERNAL_EXTERNAL, CensorshipPolicy.OFAC_COMPLIANT,
     MevFilterPolicy.NONE),
    ("Eden", "https://relay.edennetwork.io", "MEV Boost",
     BuilderAccess.INTERNAL, CensorshipPolicy.OFAC_COMPLIANT, MevFilterPolicy.NONE),
    ("Flashbots", "https://boost-relay.flashbots.net", "MEV Boost",
     BuilderAccess.INTERNAL_PERMISSIONLESS, CensorshipPolicy.OFAC_COMPLIANT,
     MevFilterPolicy.NONE),
    ("GnosisDAO", "https://agnostic-relay.net", "MEV Boost",
     BuilderAccess.PERMISSIONLESS, CensorshipPolicy.NONE, MevFilterPolicy.NONE),
    ("Manifold", "https://mainnet-relay.securerpc.com", "MEV Boost",
     BuilderAccess.PERMISSIONLESS, CensorshipPolicy.NONE, MevFilterPolicy.NONE),
    ("Relayooor", "https://relayooor.wtf", "MEV Boost",
     BuilderAccess.PERMISSIONLESS, CensorshipPolicy.NONE, MevFilterPolicy.NONE),
    ("UltraSound", "https://relay.ultrasound.money", "MEV Boost",
     BuilderAccess.PERMISSIONLESS, CensorshipPolicy.NONE, MevFilterPolicy.NONE),
)

_RELAY_INTERNAL_BUILDERS: dict[str, frozenset[str]] = {
    "Blocknative": frozenset({"blocknative"}),
    "bloXroute (E)": frozenset({"bloXroute (E)"}),
    "bloXroute (M)": frozenset({"bloXroute (M)"}),
    "bloXroute (R)": frozenset({"bloXroute (R)"}),
    "Eden": frozenset({"Eden"}),
    "Flashbots": frozenset({"Flashbots"}),
}

# Payment-validation miss rates calibrated against Table 4's
# "share over-promised blocks" column (Aestus validates everything).
_RELAY_VALIDATION_MISS: dict[str, float] = {
    "Aestus": 0.0,
    "Blocknative": 0.85,
    "bloXroute (E)": 1.0,
    "bloXroute (M)": 0.65,
    "bloXroute (R)": 0.03,
    "Eden": 0.012,
    "Flashbots": 0.008,
    "GnosisDAO": 0.22,
    "Manifold": 0.60,
    "Relayooor": 0.50,
    "UltraSound": 0.24,
}

# OFAC-list refresh lag in days per relay; the Flashbots override for the
# 2023-02-01 batch reproduces the months-late update the paper observed.
_RELAY_SANCTIONS_LAG: dict[str, int] = {
    "Blocknative": 2,
    "bloXroute (R)": 2,
    "Eden": 3,
    "Flashbots": 2,
}


def build_relays(config: SimulationConfig) -> dict[str, Relay]:
    """Instantiate the eleven relays with their policies and failure models."""
    import datetime

    relays: dict[str, Relay] = {}
    for index, (name, endpoint, fork, access, censorship, mev_filter) in enumerate(
        RELAY_SPECS
    ):
        internal = _RELAY_INTERNAL_BUILDERS.get(name, frozenset())
        lag_overrides: dict[datetime.date, int] = {}
        if name == "Flashbots":
            # Nov 2022 batch picked up two days late; Feb 2023 batch months late.
            lag_overrides[datetime.date(2022, 11, 8)] = 2
            lag_overrides[datetime.date(2023, 2, 1)] = 120
        relays[name] = Relay(
            name=name,
            endpoint=endpoint,
            policy=RelayPolicy(
                builder_access=access,
                censorship=censorship,
                mev_filter=mev_filter,
                allowed_builders=frozenset(
                    {"builder0x69", "beaverbuild", "rsync-builder", "eth-builder",
                     "Builder 4"}
                )
                if access is BuilderAccess.INTERNAL_EXTERNAL
                else frozenset(),
            ),
            fork=fork,
            internal_builders=internal,
            sanctions_lag_days=_RELAY_SANCTIONS_LAG.get(name, 2),
            sanctions_lag_overrides=lag_overrides,
            mev_filter_miss_rate=0.5 if name == "bloXroute (E)" else 0.0,
            validates_internal_builders=name not in ("Eden", "Blocknative"),
            validation_miss_rate=_RELAY_VALIDATION_MISS.get(name, 0.2),
            rng_seed=config.seed * 1000 + index,
        )
    return relays


# ---------------------------------------------------------------------------
# Builders (Table 5 roster + long tail)
# ---------------------------------------------------------------------------

# name -> (pubkey count, addresses count, self-censors, pays-via-proposer)
NAMED_BUILDERS: tuple[tuple[str, int, int, bool, bool], ...] = (
    ("Flashbots", 3, 2, True, False),
    ("builder0x69", 5, 1, False, False),
    ("beaverbuild", 4, 1, False, False),
    ("bloXroute (M)", 4, 1, False, False),
    ("blocknative", 4, 1, True, False),
    ("rsync-builder", 3, 1, False, False),
    ("eth-builder", 2, 1, False, False),
    ("bloXroute (R)", 3, 1, True, False),
    ("Builder 1", 2, 1, False, False),
    ("Eden", 4, 1, True, False),
    ("Manta-builder", 3, 1, False, False),
    ("Builder 2", 1, 1, False, False),
    ("Builder 3", 1, 0, False, True),
    ("Builder 4", 1, 1, False, False),
    ("Builder 5", 1, 1, False, False),
    ("Builder 6", 1, 0, False, True),
    ("bloXroute (E)", 3, 1, False, False),
)


def _bid_policy_for(name: str, timeline: Timeline):
    if name in ("Flashbots",):
        return FixedMargin(margin_wei=ether(0.0006))
    if name == "blocknative":
        return FixedMargin(margin_wei=ether(0.0008))
    if name == "Eden":
        return FixedMargin(margin_wei=ether(0.0004))
    if name == "builder0x69":
        return Subsidizer(proposer_share=0.93, subsidy_probability=0.12,
                          subsidy_factor=1.035)
    if name == "beaverbuild":
        return Subsidizer(proposer_share=0.93, subsidy_probability=0.12,
                          subsidy_factor=1.035,
                          loss_schedule=timeline.beaverbuild_loss_boost)
    if name == "eth-builder":
        return Subsidizer(proposer_share=0.92, subsidy_probability=0.15,
                          subsidy_factor=1.03)
    if name == "bloXroute (M)":
        return Subsidizer(proposer_share=1.0, subsidy_probability=0.55,
                          subsidy_factor=1.03)
    if name == "bloXroute (R)":
        return Subsidizer(proposer_share=0.995, subsidy_probability=0.45,
                          subsidy_factor=1.03)
    if name == "bloXroute (E)":
        return Subsidizer(proposer_share=0.99, subsidy_probability=0.40,
                          subsidy_factor=1.02)
    if name in ("rsync-builder",):
        return Proportional(proposer_share=0.88)
    if name == "Builder 1":
        return Proportional(proposer_share=0.86)
    if name == "Manta-builder":
        return Proportional(proposer_share=0.87)
    return Proportional(proposer_share=0.94)


def build_builders(
    config: SimulationConfig,
    timeline: Timeline,
    rng: np.random.Generator,
    network_nodes: int,
) -> dict[str, BlockBuilder]:
    """The named roster plus the long tail (133 distinct builders total)."""
    builders: dict[str, BlockBuilder] = {}
    for name, n_pubkeys, n_addresses, censors, via_proposer in NAMED_BUILDERS:
        pubkeys = tuple(
            derive_pubkey("builder", f"{name}:{i}") for i in range(n_pubkeys)
        )
        address = derive_address("builder", name)
        builder = BlockBuilder(
            name=name,
            address=address,
            pubkeys=pubkeys,
            bid_policy=_bid_policy_for(name, timeline),
            mempool_node=int(rng.integers(0, network_nodes)),
            mempool_coverage=1.0,
            self_censors=censors,
            sanctions_lag_days=1 if censors else 0,
            pays_via_proposer_recipient=via_proposer,
        )
        builder.overclaim_rate = 0.001 if name == "Eden" else 0.04
        if not censors:
            builder.sanctioned_risk_aversion = 0.2
        builders[name] = builder

    for index in range(config.num_long_tail_builders):
        name = f"builder-{index:03d}"
        builders[name] = BlockBuilder(
            name=name,
            address=derive_address("builder", name),
            pubkeys=(derive_pubkey("builder", f"{name}:0"),),
            bid_policy=Proportional(proposer_share=0.95),
            mempool_node=int(rng.integers(0, network_nodes)),
            mempool_coverage=float(rng.uniform(0.55, 0.85)),
            self_censors=False,
        )
        builders[name].overclaim_rate = 0.04
    return builders


def long_tail_start_day(index: int, num_days: int) -> int:
    """Long-tail builders come online progressively through the window."""
    return int(round(index * max(1, num_days - 10) / 130))


# ---------------------------------------------------------------------------
# Validators (staking pools and solo stakers)
# ---------------------------------------------------------------------------

# entity -> (stake share, connection profile).  AnkrPool never opts into
# PBS — that is how the December Binance private flow reaches non-PBS blocks.
STAKING_ENTITIES: tuple[tuple[str, float, str], ...] = (
    ("Lido", 0.28, "mixed"),
    ("Coinbase", 0.13, "compliant"),
    ("Kraken", 0.08, "compliant"),
    ("Binance", 0.06, "open"),
    ("Staked.us", 0.03, "compliant"),
    ("Figment", 0.03, "mixed"),
    ("RocketPool", 0.02, "open"),
    ("AnkrPool", 0.015, "open"),
)


def build_validators(
    config: SimulationConfig, rng: np.random.Generator
) -> tuple[ValidatorRegistry, dict[int, str], dict[int, int]]:
    """Create validators; returns (registry, profiles, adoption days).

    ``profiles`` maps validator index -> relay-menu profile; ``adoption``
    maps validator index -> first study day it proposes through MEV-Boost
    (a large sentinel for never-adopters).
    """
    from .calibration import PROFILE_SHARES, pbs_adoption_share

    registry = ValidatorRegistry()
    profiles: dict[int, str] = {}
    adoption: dict[int, int] = {}

    pooled_total = sum(share for _, share, _ in STAKING_ENTITIES)
    for entity, share, profile in STAKING_ENTITIES:
        count = max(1, int(round(config.num_validators * share)))
        for validator in registry.add_many(entity, count):
            profiles[validator.index] = profile
    solo_count = max(0, config.num_validators - len(registry))
    profile_pick = WeightedPick(
        list(PROFILE_SHARES), list(PROFILE_SHARES.values())
    )
    for index in range(solo_count):
        validator = registry.add(f"solo-{index:05d}")
        profiles[validator.index] = profile_pick.choose(rng, 1)[0]

    never = 10**9
    shares = [pbs_adoption_share(day) for day in range(config.num_days)]
    for validator in registry:
        if validator.entity == "AnkrPool":
            adoption[validator.index] = never
            continue
        draw = float(rng.random())
        adoption[validator.index] = next(
            (day for day, share in enumerate(shares) if share >= draw), never
        )
    return registry, profiles, adoption


# ---------------------------------------------------------------------------
# Searchers
# ---------------------------------------------------------------------------

def build_searchers() -> list[Searcher]:
    """The private searcher ecosystem (bundles to builders)."""
    searchers: list[Searcher] = [
        SandwichSearcher("sw-subway", derive_address("searcher", "sw-subway"),
                         skill=0.92, bid_fraction=0.90),
        SandwichSearcher("sw-club", derive_address("searcher", "sw-club"),
                         skill=0.72, bid_fraction=0.85),
        SandwichSearcher("sw-deli", derive_address("searcher", "sw-deli"),
                         skill=0.55, bid_fraction=0.80),
        ArbitrageSearcher("arb-alpha", derive_address("searcher", "arb-alpha"),
                          skill=0.90, bid_fraction=0.88),
        ArbitrageSearcher("arb-beta", derive_address("searcher", "arb-beta"),
                          skill=0.78, bid_fraction=0.84),
        ArbitrageSearcher("arb-gamma", derive_address("searcher", "arb-gamma"),
                          skill=0.60, bid_fraction=0.80),
        LiquidationSearcher("liq-keeper-1", derive_address("searcher", "liq-keeper-1"),
                            skill=0.88, bid_fraction=0.86),
        LiquidationSearcher("liq-keeper-2", derive_address("searcher", "liq-keeper-2"),
                            skill=0.70, bid_fraction=0.82),
    ]
    return searchers


# ---------------------------------------------------------------------------
# DeFi universe
# ---------------------------------------------------------------------------

TOKEN_SPECS: tuple[tuple[str, int, float], ...] = (
    # (symbol, decimals, initial USD price)
    ("WETH", 18, 1500.0),
    ("USDC", 6, 1.0),
    ("DAI", 18, 1.0),
    ("USDT", 6, 1.0),
    ("WBTC", 8, 20_000.0),
    ("TRON", 18, 0.06),
    ("ALT1", 18, 25.0),
    ("ALT2", 18, 3.0),
)

# (token0, token1, weth-side depth in whole tokens, fee bps)
POOL_SPECS: tuple[tuple[str, str, float, int], ...] = (
    ("WETH", "USDC", 2000.0, 30),
    ("WETH", "USDC", 1200.0, 5),
    ("WETH", "DAI", 1500.0, 30),
    ("WETH", "USDT", 1200.0, 30),
    ("WETH", "WBTC", 800.0, 30),
    ("USDC", "DAI", 4000.0, 5),
    ("USDC", "USDT", 3500.0, 5),
    ("WETH", "ALT1", 300.0, 30),
    ("USDC", "ALT1", 350.0, 30),
    ("WETH", "ALT2", 200.0, 30),
    ("DAI", "ALT2", 250.0, 30),
    ("WETH", "TRON", 80.0, 30),
)


def build_defi() -> DefiProtocols:
    """Deploy tokens, pools (seeded consistently with the oracle), markets."""
    prices = {"ETH": 1500.0}
    for symbol, _, price in TOKEN_SPECS:
        prices[symbol] = price
    oracle = PriceOracle(prices)
    defi = DefiProtocols.create(oracle)
    decimals = {}
    for symbol, dec, _ in TOKEN_SPECS:
        defi.tokens.deploy(symbol, dec)
        decimals[symbol] = dec

    for token0, token1, eth_depth, fee_bps in POOL_SPECS:
        value_usd = eth_depth * prices["WETH"]
        reserve0 = int(value_usd / prices[token0] * 10 ** decimals[token0])
        reserve1 = int(value_usd / prices[token1] * 10 ** decimals[token1])
        defi.amm.register_pool(token0, token1, reserve0, reserve1, fee_bps=fee_bps)

    defi.add_market(
        LendingMarket("aave", defi.tokens, liquidation_threshold=0.85,
                      liquidation_bonus=0.08)
    )
    defi.add_market(
        LendingMarket("compound", defi.tokens, liquidation_threshold=0.82,
                      liquidation_bonus=0.10)
    )
    return defi
