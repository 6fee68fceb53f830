"""MEV: searchers that create it, and detectors that measure it.

Searchers watch the mempool, pools and lending markets, craft bundles
(sandwich attacks, cyclic arbitrage, liquidations) and bid for inclusion
via coinbase tips — the private order flow at the heart of PBS.  Detectors
recover MEV activity *from chain evidence only* (swap/liquidation logs),
like the paper's EigenPhi / ZeroMev / Weintraub label sources, and
``labels`` models the union of those three imperfect sources.
"""
