"""Multi-source MEV labels and their union.

The paper maximizes coverage by taking the union of three independently
built, imperfect label sources (EigenPhi, ZeroMev, modified Weintraub et
al. scripts).  Each :class:`LabelSource` here keeps the detectors' labels
with a deterministic per-source recall — some true positives are missed,
different ones per source — so the union logic is exercised for real.  The
detectors are pure, so a block is detected once and every source takes
its share of that one result.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

from ..chain.block import Block
from ..chain.receipts import Receipt
from ..defi.oracle import PriceOracle
from ..errors import ConfigError
from ..types import Hash
from .detection import MevLabel, detect_block_mev


@dataclass(frozen=True)
class LabelSource:
    """One MEV data provider with imperfect, deterministic recall."""

    name: str
    recall: float

    def __post_init__(self) -> None:
        if not 0.0 < self.recall <= 1.0:
            raise ConfigError(f"recall must be in (0, 1], got {self.recall}")

    def _keeps(self, attack_id: str) -> bool:
        """Deterministically decide if this source catches an attack."""
        digest = hashlib.sha256(f"{self.name}:{attack_id}".encode("utf-8")).digest()
        draw = int.from_bytes(digest[:4], "big") / 2**32
        return draw < self.recall

    def recalled(self, detected: list[MevLabel]) -> list[MevLabel]:
        """The labels of one block's full detection this source catches."""
        return [
            replace(label, source=self.name)
            for label in detected
            if self._keeps(label.attack_id)
        ]


def build_default_sources() -> list[LabelSource]:
    """The three sources the paper unions, with realistic coverage levels."""
    return [
        LabelSource(name="eigenphi", recall=0.93),
        LabelSource(name="zeromev", recall=0.88),
        LabelSource(name="weintraub", recall=0.85),
    ]


class MevDataset:
    """The unioned MEV label dataset, indexed for the analyses."""

    def __init__(self, sources: list[LabelSource] | None = None) -> None:
        self._sources = sources if sources is not None else build_default_sources()
        self._labels: list[MevLabel] = []
        self._by_key: dict[tuple[Hash, str], MevLabel] = {}
        self._by_block: dict[int, list[MevLabel]] = {}
        self._per_source_counts: dict[str, int] = {
            source.name: 0 for source in self._sources
        }

    @property
    def sources(self) -> list[LabelSource]:
        return list(self._sources)

    def ingest_block(
        self, block: Block, receipts: list[Receipt], oracle: PriceOracle | None = None
    ) -> list[MevLabel]:
        """Detect a block's MEV once, then merge each source's share (union)."""
        detected = detect_block_mev(block, receipts, oracle)
        added: list[MevLabel] = []
        for source in self._sources:
            for label in source.recalled(detected):
                self._per_source_counts[source.name] += 1
                key = (label.tx_hash, label.kind)
                if key in self._by_key:
                    continue
                self._by_key[key] = label
                self._labels.append(label)
                self._by_block.setdefault(block.number, []).append(label)
                added.append(label)
        return added

    def absorb(self, other: "MevDataset") -> None:
        """Union another dataset's labels into this one (segment merge).

        Labels keep first-seen-wins semantics on ``(tx_hash, kind)`` —
        across epoch segments keys never collide (transaction hashes are
        segment-unique), so this is a pure concatenation plus summed
        per-source counts.
        """
        for name, count in other._per_source_counts.items():
            self._per_source_counts[name] = (
                self._per_source_counts.get(name, 0) + count
            )
        for label in other._labels:
            key = (label.tx_hash, label.kind)
            if key in self._by_key:
                continue
            self._by_key[key] = label
            self._labels.append(label)
            self._by_block.setdefault(label.block_number, []).append(label)

    # -- queries -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._labels)

    def all_labels(self) -> list[MevLabel]:
        return list(self._labels)

    def labels_for_block(self, block_number: int) -> list[MevLabel]:
        return list(self._by_block.get(block_number, []))

    def count_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for label in self._labels:
            counts[label.kind] = counts.get(label.kind, 0) + 1
        return counts

    def per_source_counts(self) -> dict[str, int]:
        """Raw (pre-union) label counts per source — the Table 1 rows."""
        return dict(self._per_source_counts)
