"""Network substrate: P2P gossip, mempools, observers, private order flow.

Reproduces the two transaction pathways the paper distinguishes: public
propagation through the gossip overlay (observable by Mempool-Guru-style
monitor nodes) and private channels straight to builders/validators that
bypass the public mempool entirely.
"""
