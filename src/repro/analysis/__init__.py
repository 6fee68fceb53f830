"""The measurement pipeline: every analysis in the paper's evaluation.

Each module reproduces one slice of the paper over a collected
:class:`~repro.datasets.collector.StudyDataset`:

* ``adoption`` — PBS vs non-PBS share over time (Fig. 4)
* ``concentration`` — HHI and market shares (Fig. 6)
* ``relays`` — relay shares, builders per relay, relay trust (Figs. 5, 7; Table 4)
* ``builders`` — builder shares, profits, value split (Figs. 8, 11, 12, 19; Table 5)
* ``blocks`` — block value, proposer profit, size, private txs (Figs. 9, 10, 13, 14)
* ``mev`` — MEV counts and value shares (Figs. 15, 16, 20-22)
* ``censorship`` — compliant-relay share, sanctioned blocks (Figs. 17, 18; Table 4)
* ``rewards`` — user payment decomposition (Fig. 3)
* ``regimes`` — MEV-Boost vs enshrined-PBS vs local-building comparison
"""

from .adoption import daily_pbs_share
from .blocks import (
    daily_block_size,
    daily_block_value,
    daily_private_tx_share,
    daily_proposer_profit,
)
from .builders import (
    builder_map,
    builder_profit_distribution,
    cluster_builders,
    daily_builder_shares,
    daily_profit_split,
    proposer_profit_by_builder,
)
from .censorship import (
    daily_compliant_relay_share,
    daily_sanctioned_share,
    sanctioned_blocks_by_relay,
)
from .concentration import daily_hhi_series, herfindahl_hirschman_index
from .network_structure import (
    builder_relay_graph,
    connectivity_report,
    relay_overlap_matrix,
)
from .mev import (
    bloxroute_ethical_sandwiches,
    daily_mev_per_block,
    daily_mev_value_share,
)
from .relays import (
    builders_per_relay_daily,
    daily_relay_shares,
    relay_trust_table,
)
from .regimes import (
    RegimeMetrics,
    compare_regimes,
    regime_metrics,
    render_regime_comparison,
)
from .rewards import daily_user_payment_shares
from .timeseries import DailySeries

__all__ = [
    "daily_pbs_share",
    "daily_block_size",
    "daily_block_value",
    "daily_private_tx_share",
    "daily_proposer_profit",
    "builder_map",
    "builder_profit_distribution",
    "cluster_builders",
    "daily_builder_shares",
    "daily_profit_split",
    "proposer_profit_by_builder",
    "daily_compliant_relay_share",
    "daily_sanctioned_share",
    "sanctioned_blocks_by_relay",
    "daily_hhi_series",
    "herfindahl_hirschman_index",
    "bloxroute_ethical_sandwiches",
    "builder_relay_graph",
    "connectivity_report",
    "relay_overlap_matrix",
    "daily_mev_per_block",
    "daily_mev_value_share",
    "builders_per_relay_daily",
    "daily_relay_shares",
    "relay_trust_table",
    "daily_user_payment_shares",
    "RegimeMetrics",
    "compare_regimes",
    "regime_metrics",
    "render_regime_comparison",
    "DailySeries",
]
