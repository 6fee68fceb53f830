"""Scenario and world simulation.

``SimulationConfig`` + ``build_world``/``World.run`` produce a complete
simulated post-merge Ethereum with the PBS ecosystem of the paper's
measurement window: the eleven relays and their policies, the named builder
roster, staking-pool validators with a calibrated MEV-Boost adoption curve,
searchers, DeFi activity, sanctioned actors, and the documented incidents
(Manifold 2022-10-15, Eden's mispromise, the 2022-11-10 timestamp bug,
FTX/USDC volatility spikes, the December Binance->AnkrPool private flow).
"""

from .config import SimulationConfig
from .world import build_world

__all__ = ["SimulationConfig", "build_world"]
