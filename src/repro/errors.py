"""Exception hierarchy for the repro library.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures with a single except clause while still
being able to discriminate on subsystem.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigError(ReproError):
    """Invalid simulation or analysis configuration.

    ``field`` names the config field whose value is at fault, when one is.
    """

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__(message)
        self.field = field


class ChainError(ReproError):
    """Execution-layer failures (unknown blocks, broken invariants)."""


class ExecutionError(ChainError):
    """A transaction could not be executed."""


class InsufficientBalanceError(ExecutionError):
    """An account tried to spend more ETH or tokens than it holds."""


class BeaconError(ReproError):
    """Consensus-layer failures (bad slots, unknown validators)."""


class DefiError(ReproError):
    """DeFi substrate failures (pools, lending, oracle)."""


class SwapError(DefiError):
    """A swap violated its own constraints (e.g. min-out not met)."""


class LiquidationError(DefiError):
    """An invalid liquidation attempt (healthy or unknown position)."""


class NetworkError(ReproError):
    """P2P/mempool substrate failures."""


class PBSError(ReproError):
    """PBS-layer failures (builders, relays, MEV-Boost)."""


class RelayError(PBSError):
    """A relay rejected or failed to serve a request."""


class MissingPayloadError(RelayError):
    """A signed header had no matching payload held in escrow."""


class DataError(ReproError):
    """Dataset collection / storage failures."""


class ConformanceError(ReproError):
    """Conformance-harness failures (oracles, scenarios, replay matrix)."""


class OracleViolationError(ConformanceError):
    """An invariant oracle found violations no modeled failure explains."""


class ScenarioError(ConformanceError):
    """A fault-injection scenario was invalid or its detection check failed."""


class AnalysisError(ReproError):
    """Measurement-pipeline failures (empty inputs, bad parameters)."""
