"""Chain-level constants shared across the simulator and the analyses.

Values mirror Ethereum mainnet parameters during the paper's measurement
window (the merge on 2022-09-15 through 2023-03-31).
"""

from __future__ import annotations

import datetime

from .types import ether

# --- Consensus layer -------------------------------------------------------
SECONDS_PER_SLOT = 12
SLOTS_PER_EPOCH = 32
STAKE_PER_VALIDATOR_WEI = ether(32)

# --- Execution layer (EIP-1559 fee market) ---------------------------------
TARGET_BLOCK_GAS = 15_000_000
MAX_BLOCK_GAS = 30_000_000
BASE_FEE_MAX_CHANGE_DENOMINATOR = 8
ELASTICITY_MULTIPLIER = 2
MIN_BASE_FEE_WEI = 7  # mainnet floor after sustained empty blocks
INITIAL_BASE_FEE_WEI = 12 * 10**9  # ~12 gwei around the merge

# --- Measurement window (paper Section 3) ----------------------------------
MERGE_BLOCK_NUMBER = 15_537_394
MERGE_DATE = datetime.date(2022, 9, 15)
STUDY_END_DATE = datetime.date(2023, 3, 31)
STUDY_END_BLOCK_NUMBER = 16_950_602
STUDY_NUM_DAYS = (STUDY_END_DATE - MERGE_DATE).days + 1  # 198 days inclusive

# The merge happened mid-slot-history; the first post-merge slot on mainnet.
MERGE_SLOT = 4_700_013

# --- Notable event dates reproduced by the scenario ------------------------
FTX_BANKRUPTCY_DATE = datetime.date(2022, 11, 11)
USDC_DEPEG_DATE = datetime.date(2023, 3, 11)
MANIFOLD_INCIDENT_DATE = datetime.date(2022, 10, 15)
NOV10_TIMESTAMP_BUG_DATE = datetime.date(2022, 11, 10)
EDEN_MISPROMISE_BLOCK_NUMBER = 15_703_347
OFAC_UPDATE_DATES = (
    datetime.date(2022, 11, 8),
    datetime.date(2023, 2, 1),
)
TRON_SANCTION_DATE = datetime.date(2022, 11, 8)

# The five ERC-20 tokens whose transfers the paper screens for sanctions,
# plus the TRON token monitored from November 2022.
SCREENED_TOKENS = ("WETH", "USDC", "DAI", "USDT", "WBTC")
TRON_TOKEN_SYMBOL = "TRON"


def day_index(date: datetime.date) -> int:
    """Index of a calendar date within the study window (0 = merge day)."""
    return (date - MERGE_DATE).days
