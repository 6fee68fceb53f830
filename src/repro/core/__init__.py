"""PBS core: builders, relays, MEV-Boost, proposers, and the slot auction.

This package implements the Proposer-Builder Separation scheme the paper
measures: block builders assemble blocks from bundles, private order flow
and the public mempool; relays escrow blocks, enforce their announced
policies (builder access, OFAC compliance, MEV filtering — including the
gaps the paper uncovers), and serve the Flashbots relay data API; MEV-Boost
on the validator picks the highest bid across subscribed relays; and the
proposer signs the blinded header or falls back to local block building.
"""
