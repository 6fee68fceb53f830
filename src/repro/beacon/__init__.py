"""Consensus-layer (Beacon chain) substrate.

Implements the pieces of Ethereum PoS the paper relies on: 12-second slots
grouped into 32-slot epochs, a validator registry with 32-ETH staking and
entity (staking-pool) attribution, seeded proposer election with epoch
lookahead, and the beacon chain record of proposed/missed slots.
"""
