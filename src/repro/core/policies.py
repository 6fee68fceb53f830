"""Relay policies: builder access, censorship, and MEV filtering.

Encodes the policy matrix of the paper's Table 3 — how each relay connects
to builders, whether it announces OFAC compliance, and whether it filters
front-running MEV.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class BuilderAccess(enum.Enum):
    """How a relay sources blocks from builders."""

    INTERNAL = "internal"
    INTERNAL_EXTERNAL = "internal & external"
    INTERNAL_PERMISSIONLESS = "internal & permissionless"
    PERMISSIONLESS = "permissionless"

    @property
    def runs_own_builder(self) -> bool:
        return self in (
            BuilderAccess.INTERNAL,
            BuilderAccess.INTERNAL_EXTERNAL,
            BuilderAccess.INTERNAL_PERMISSIONLESS,
        )

    @property
    def open_to_anyone(self) -> bool:
        return self in (
            BuilderAccess.PERMISSIONLESS,
            BuilderAccess.INTERNAL_PERMISSIONLESS,
        )


class CensorshipPolicy(enum.Enum):
    """A relay's announced stance on transaction censorship."""

    NONE = "none"
    OFAC_COMPLIANT = "OFAC-compliant"


class MevFilterPolicy(enum.Enum):
    """A relay's announced stance on filtering MEV from blocks."""

    NONE = "none"
    FRONTRUNNING = "front-running"


@dataclass(frozen=True)
class RelayPolicy:
    """The full announced policy of one relay (one Table 3 row)."""

    builder_access: BuilderAccess
    censorship: CensorshipPolicy = CensorshipPolicy.NONE
    mev_filter: MevFilterPolicy = MevFilterPolicy.NONE
    # Names of external builders admitted when access is not permissionless.
    allowed_builders: frozenset[str] = frozenset()

    @property
    def is_censoring(self) -> bool:
        return self.censorship is CensorshipPolicy.OFAC_COMPLIANT

    def admits_builder(self, builder_name: str, internal_builders: frozenset[str]) -> bool:
        """Whether a builder may submit under this access policy."""
        if builder_name in internal_builders:
            return self.builder_access.runs_own_builder
        if self.builder_access.open_to_anyone:
            return True
        if self.builder_access is BuilderAccess.INTERNAL_EXTERNAL:
            return builder_name in self.allowed_builders
        return False
