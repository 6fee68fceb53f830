"""DeFi substrate: tokens, AMMs, lending, and the price oracle.

These protocols exist so that MEV in the simulator is *real*: sandwich
attacks move constant-product pool prices, cyclic arbitrage exploits
cross-pool discrepancies, and liquidations fire when the oracle moves.
Every protocol emits event logs with the same structure as its mainnet
counterpart, so the paper's log-based MEV detectors run unchanged.
"""
