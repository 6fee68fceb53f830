"""OFAC sanctions: the dated address list and transaction screening.

Implements the paper's methodology: a sanctions list whose entries become
effective the day *after* they are published, plus a screener that flags
transactions moving ETH (via traces) or the top-five ERC-20 tokens / TRON
(via Transfer logs) from or to a sanctioned address.
"""
