"""Dataset collection (paper Section 3).

Crawls a simulated world the way the paper crawled mainnet: blocks,
transactions, logs and traces from the chain (Erigon's role), MEV labels
from three unioned sources, mempool arrival times from the observer nodes,
the relay data APIs of all eleven relays, and the dated OFAC list — and
joins them into the per-block observations the analyses consume.
"""

from .collector import collect_study_dataset

__all__ = ["collect_study_dataset"]
