"""Simulation configuration.

One dataclass controls world size (days, blocks per day, population sizes)
and all behavioural rates.  The full-study benchmark scenario uses the
defaults with ``num_days=198``; tests shrink the world.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from ..constants import STUDY_NUM_DAYS
from ..errors import ConfigError
from .faults import PAPER_INCIDENTS, FaultSpec


@dataclass
class SimulationConfig:
    """All knobs of one simulated world."""

    seed: int = 7
    num_days: int = STUDY_NUM_DAYS
    blocks_per_day: int = 40
    missed_slot_rate: float = 0.008

    # Populations.
    num_validators: int = 1200
    num_users: int = 600
    num_long_tail_builders: int = 116  # named roster (17) -> 133 total
    network_nodes: int = 48

    # Transaction workload (per slot).
    mean_user_txs_per_slot: float = 55.0

    # Sanctioned activity: probability a given slot's workload includes a
    # transaction involving a sanctioned address.
    sanctioned_tx_rate: float = 0.05

    # MEV workload.
    num_lending_positions: int = 60
    lending_refill_per_day: float = -1.0  # -1 = auto: ~0.022 per block

    # Fault plan seeded into every world (and every epoch segment): the
    # paper's incidents by default; ``()`` for the incidents-off ablation,
    # ``PAPER_INCIDENTS + extra`` for an injected-fault scenario.
    faults: tuple[FaultSpec, ...] = PAPER_INCIDENTS

    # Block-production regime.  ``"mev_boost"`` is the historical
    # relay-based scheme the paper measures; ``"epbs"`` runs the full
    # EIP-7732 enshrined design (staked builders, two-phase slot,
    # payload-timeliness committee — no relays); ``"local"`` is the
    # counterfactual where every proposer self-builds.  All three produce
    # digest-deterministic StudyDatasets through the unchanged collector.
    regime: str = "mev_boost"

    # MEV-Boost min-bid in ETH applied to every PBS validator (0 = off).
    # A post-study censorship-resistance mitigation; see the ablations.
    min_bid_eth: float = 0.0

    # How many builders compete per slot (top order-flow weighted sample).
    max_active_builders_per_slot: int = 7

    # Epoch-segment sharding.  ``segment_days > 0`` partitions the study
    # window into independent epoch segments of that many days, each with
    # its own RNG streams derived from the root seed; ``shard_workers``
    # executes segments across processes.  The segment *plan* depends only
    # on (num_days, segment_days), never on the worker count, so a sharded
    # run's digest is bit-identical at any ``shard_workers`` setting (the
    # differential replay matrix enforces it).  ``segment_days = 0`` keeps
    # the legacy single-segment run, digest-compatible with every earlier
    # revision.
    segment_days: int = 0
    shard_workers: int = 1

    def __post_init__(self) -> None:
        for name, least in (
            ("seed", 0),
            ("num_days", 1),
            ("blocks_per_day", 1),
            ("num_validators", 10),
            ("num_users", 1),
            ("num_long_tail_builders", 0),
            ("network_nodes", 1),
            ("num_lending_positions", 0),
            ("max_active_builders_per_slot", 1),
            ("segment_days", 0),
            ("shard_workers", 1),
        ):
            value = getattr(self, name)
            if value < least:
                raise ConfigError(
                    f"{name} must be at least {least}, got {value}", field=name
                )
        if self.num_days > STUDY_NUM_DAYS:
            raise ConfigError(
                f"num_days cannot exceed the study window ({STUDY_NUM_DAYS}), "
                f"got {self.num_days}",
                field="num_days",
            )
        for name in ("mean_user_txs_per_slot", "min_bid_eth"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ConfigError(f"{name} must be non-negative, got {value}")
        if not 0.0 <= self.missed_slot_rate < 1.0:
            raise ConfigError(
                f"missed_slot_rate must be in [0, 1), got {self.missed_slot_rate}"
            )
        if not 0.0 <= self.sanctioned_tx_rate <= 1.0:
            raise ConfigError(
                f"sanctioned_tx_rate must be in [0, 1], got {self.sanctioned_tx_rate}"
            )
        if not (
            self.lending_refill_per_day >= 0.0 or self.lending_refill_per_day == -1.0
        ):
            raise ConfigError(
                "lending_refill_per_day must be non-negative, or -1 for auto, "
                f"got {self.lending_refill_per_day}"
            )
        if self.shard_workers > 1 and self.segment_days <= 0:
            raise ConfigError(
                "shard_workers > 1 requires segment_days > 0: the segment "
                "plan must be fixed by the config, not the worker count, "
                "so that digests are worker-count-invariant"
            )
        if self.regime not in ("mev_boost", "epbs", "local"):
            raise ConfigError(
                "regime must be 'mev_boost', 'epbs' or 'local', "
                f"got {self.regime!r}"
            )
        self.faults = tuple(self.faults)
        if not all(isinstance(spec, FaultSpec) for spec in self.faults):
            raise ConfigError("faults must hold FaultSpec entries", field="faults")

    @property
    def num_segments(self) -> int:
        """Segments in this config's epoch-segment plan (1 = unsegmented)."""
        if self.segment_days <= 0:
            return 1
        return -(-self.num_days // self.segment_days)

    @property
    def seconds_per_simulated_slot(self) -> float:
        """Wall-clock seconds between simulated block opportunities."""
        return 86_400.0 / self.blocks_per_day

    def with_overrides(self, **overrides) -> "SimulationConfig":
        """A copy of this config with the given fields replaced.

        Raises :class:`ConfigError` on unknown field names so scenario
        specs and replay-matrix cases fail loudly instead of silently
        ignoring a typo.
        """
        known = {f.name for f in dataclasses.fields(self)}
        unknown = sorted(set(overrides) - known)
        if unknown:
            raise ConfigError(
                f"unknown SimulationConfig field(s): {', '.join(unknown)}"
            )
        return dataclasses.replace(self, **overrides)


def small_test_config(**overrides) -> SimulationConfig:
    """A fast world for unit/integration tests (seconds, not minutes)."""
    defaults = dict(
        seed=7,
        num_days=12,
        blocks_per_day=8,
        num_validators=120,
        num_users=120,
        num_long_tail_builders=10,
        network_nodes=24,
        mean_user_txs_per_slot=46.0,
        num_lending_positions=30,
        lending_refill_per_day=1.0,
        max_active_builders_per_slot=5,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)
