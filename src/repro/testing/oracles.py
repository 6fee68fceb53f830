"""Invariant oracles over a finished world and its collected dataset.

Each oracle is a pure function ``(world, dataset) -> list[OracleFinding]``.
A finding is either a **violation** — an invariant broke and no modeled
failure mode explains it — or an **anomaly**: the discrepancy is real but
attributable to a failure mode the simulation deliberately reproduces
(Manifold's validation outage, Eden's unvalidated internal builder, relay
validation miss rates, stale sanctions copies, the Nov-10 timestamp bug).
Violations must be zero on every run; anomalies are the detection signal
the fault-injection scenarios assert on.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..chain.chain import GENESIS_PARENT_HASH
from ..chain.fee_market import next_base_fee
from ..constants import MAX_BLOCK_GAS
from ..datasets.collector import StudyDataset, collect_study_dataset
from ..errors import OracleViolationError
from ..sanctions.screening import SanctionScreener, tx_statically_involves

#: Attribution kinds an oracle may assign to an explained discrepancy.
KIND_VALIDATION_OUTAGE = "validation-outage"
KIND_INTERNAL_MISPROMISE = "internal-builder-mispromise"
KIND_VALIDATION_MISS = "validation-miss"
KIND_TIMESTAMP_BUG = "timestamp-bug"
KIND_SANCTIONS_LAG = "sanctions-lag"
KIND_CENSORSHIP_GAP = "censorship-gap"
KIND_DROPPED_PAYLOAD = "dropped-payload"

SEVERITY_VIOLATION = "violation"
SEVERITY_ANOMALY = "anomaly"


@dataclass(frozen=True)
class OracleFinding:
    """One discrepancy an oracle surfaced.

    ``attributed_to`` is ``(kind, target)`` when a modeled failure mode
    explains the discrepancy (an *anomaly*); ``None`` means nothing does
    (a *violation*).
    """

    oracle: str
    message: str
    block_number: int | None = None
    attributed_to: tuple[str, str] | None = None

    @property
    def severity(self) -> str:
        return SEVERITY_ANOMALY if self.attributed_to else SEVERITY_VIOLATION


@dataclass(frozen=True)
class OracleReport:
    """All findings from one oracle pass over a run."""

    findings: tuple[OracleFinding, ...]

    @property
    def violations(self) -> tuple[OracleFinding, ...]:
        return tuple(f for f in self.findings if f.attributed_to is None)

    @property
    def anomalies(self) -> tuple[OracleFinding, ...]:
        return tuple(f for f in self.findings if f.attributed_to is not None)

    def anomaly_keys(self) -> frozenset[tuple[str, str]]:
        """The distinct (kind, target) pairs the anomalies attribute to."""
        return frozenset(
            f.attributed_to for f in self.findings if f.attributed_to
        )

    def assert_clean(self) -> None:
        """Raise :class:`OracleViolationError` on any unexplained finding."""
        if not self.violations:
            return
        lines = [
            f"[{f.oracle}] block={f.block_number}: {f.message}"
            for f in self.violations[:20]
        ]
        more = len(self.violations) - len(lines)
        if more > 0:
            lines.append(f"... and {more} more")
        raise OracleViolationError(
            f"{len(self.violations)} oracle violation(s):\n" + "\n".join(lines)
        )


# ---------------------------------------------------------------------------
# Oracle 1: ETH value conservation
# ---------------------------------------------------------------------------


def check_conservation(world, dataset: StudyDataset) -> list[OracleFinding]:
    """ETH is neither created nor destroyed outside mint/burn accounting."""
    findings: list[OracleFinding] = []
    state = world.state
    supply = state.total_supply()
    expected = state.minted_wei - state.burned_wei
    if supply != expected:
        findings.append(
            OracleFinding(
                oracle="conservation",
                message=(
                    f"total supply {supply} != minted - burned {expected}"
                ),
            )
        )

    chain_burned = 0
    for block in world.chain:
        result = world.chain.execution_result(block.block_hash)
        header = block.header
        if header.gas_used != result.gas_used:
            findings.append(
                OracleFinding(
                    oracle="conservation",
                    message=(
                        f"header gas_used {header.gas_used} != execution "
                        f"gas_used {result.gas_used}"
                    ),
                    block_number=block.number,
                )
            )
        receipt_gas = sum(r.gas_used for r in result.receipts)
        if receipt_gas != result.gas_used:
            findings.append(
                OracleFinding(
                    oracle="conservation",
                    message=(
                        f"sum of receipt gas {receipt_gas} != block "
                        f"gas_used {result.gas_used}"
                    ),
                    block_number=block.number,
                )
            )
        outcome_priority = sum(o.priority_fee_wei for o in result.outcomes)
        if outcome_priority != result.priority_fees_wei:
            findings.append(
                OracleFinding(
                    oracle="conservation",
                    message=(
                        f"sum of per-tx priority fees {outcome_priority} != "
                        f"block total {result.priority_fees_wei}"
                    ),
                    block_number=block.number,
                )
            )
        outcome_burned = sum(o.burned_wei for o in result.outcomes)
        if outcome_burned != result.burned_wei:
            findings.append(
                OracleFinding(
                    oracle="conservation",
                    message=(
                        f"sum of per-tx burn {outcome_burned} != block "
                        f"total {result.burned_wei}"
                    ),
                    block_number=block.number,
                )
            )
        expected_burn = header.base_fee_per_gas * header.gas_used
        if result.burned_wei != expected_burn:
            findings.append(
                OracleFinding(
                    oracle="conservation",
                    message=(
                        f"burned {result.burned_wei} != base_fee * gas_used "
                        f"{expected_burn}"
                    ),
                    block_number=block.number,
                )
            )
        chain_burned += result.burned_wei
    if chain_burned > state.burned_wei:
        # The chain cannot have burned more than the state accounted for
        # (the converse is fine: non-canonical speculative burns roll back).
        findings.append(
            OracleFinding(
                oracle="conservation",
                message=(
                    f"chain-total burn {chain_burned} exceeds state burn "
                    f"accounting {state.burned_wei}"
                ),
            )
        )
    return findings


# ---------------------------------------------------------------------------
# Oracle 2: chain validity
# ---------------------------------------------------------------------------


def check_chain_validity(world, dataset: StudyDataset) -> list[OracleFinding]:
    """Header linkage, gas bounds and the EIP-1559 base-fee schedule."""
    findings: list[OracleFinding] = []
    prev = None
    for block in world.chain:
        header = block.header
        if prev is None:
            if header.parent_hash != GENESIS_PARENT_HASH:
                findings.append(
                    OracleFinding(
                        oracle="chain-validity",
                        message="first block does not link to genesis",
                        block_number=block.number,
                    )
                )
        else:
            if block.number != prev.number + 1:
                findings.append(
                    OracleFinding(
                        oracle="chain-validity",
                        message=(
                            f"non-consecutive number after {prev.number}"
                        ),
                        block_number=block.number,
                    )
                )
            if header.parent_hash != prev.block_hash:
                findings.append(
                    OracleFinding(
                        oracle="chain-validity",
                        message="parent hash does not match previous block",
                        block_number=block.number,
                    )
                )
            if header.timestamp <= prev.header.timestamp:
                findings.append(
                    OracleFinding(
                        oracle="chain-validity",
                        message=(
                            f"timestamp {header.timestamp} not after parent "
                            f"{prev.header.timestamp}"
                        ),
                        block_number=block.number,
                    )
                )
            expected_fee = next_base_fee(
                prev.header.base_fee_per_gas,
                prev.header.gas_used,
                prev.header.gas_limit,
            )
            if header.base_fee_per_gas != expected_fee:
                findings.append(
                    OracleFinding(
                        oracle="chain-validity",
                        message=(
                            f"base fee {header.base_fee_per_gas} breaks the "
                            f"EIP-1559 schedule (expected {expected_fee})"
                        ),
                        block_number=block.number,
                    )
                )
        if header.gas_used > header.gas_limit:
            findings.append(
                OracleFinding(
                    oracle="chain-validity",
                    message=(
                        f"gas_used {header.gas_used} exceeds limit "
                        f"{header.gas_limit}"
                    ),
                    block_number=block.number,
                )
            )
        if header.gas_limit > MAX_BLOCK_GAS:
            findings.append(
                OracleFinding(
                    oracle="chain-validity",
                    message=f"gas limit {header.gas_limit} above protocol max",
                    block_number=block.number,
                )
            )
        prev = block
    return findings


# ---------------------------------------------------------------------------
# Oracle 3: relay-API consistency
# ---------------------------------------------------------------------------


def _builder_by_pubkey(world) -> dict:
    return {
        pubkey: builder
        for builder in world.builders.values()
        for pubkey in builder.pubkeys
    }


def check_relay_consistency(world, dataset: StudyDataset) -> list[OracleFinding]:
    """Every delivery matches an accepted submission; claims are honest.

    A claimed bid above the delivered value is only acceptable when a
    modeled relay failure explains it: a validation outage window, an
    unvalidated internal builder, or the relay's validation miss rate.
    A delivered payload missing from the canonical chain is only
    acceptable when the builder carried the timestamp bug that day.
    """
    findings: list[OracleFinding] = []
    builders = _builder_by_pubkey(world)
    day_of_slot = {rec.slot: rec.day for rec in world.slot_records}
    obs_by_number = {
        obs.number: obs for obs in dataset.table.to_observations()
    }

    for relay in world.relays.values():
        accepted = {
            (rec.slot, rec.block_hash): rec
            for rec in relay.data.get_builder_blocks_received()
            if rec.accepted
        }
        for payload in relay.data.get_payloads_delivered():
            submission = accepted.get((payload.slot, payload.block_hash))
            if submission is None:
                findings.append(
                    OracleFinding(
                        oracle="relay-consistency",
                        message=(
                            f"{relay.name} delivered slot {payload.slot} "
                            f"block {payload.block_hash} without an accepted "
                            "submission"
                        ),
                        block_number=payload.block_number,
                    )
                )
                continue
            if submission.value_claimed_wei != payload.value_claimed_wei:
                findings.append(
                    OracleFinding(
                        oracle="relay-consistency",
                        message=(
                            f"{relay.name} delivered claim "
                            f"{payload.value_claimed_wei} != submitted claim "
                            f"{submission.value_claimed_wei}"
                        ),
                        block_number=payload.block_number,
                    )
                )
            builder = builders.get(payload.builder_pubkey)
            builder_name = builder.name if builder else "<unknown>"
            day = day_of_slot.get(payload.slot)

            if not world.chain.has_block(payload.block_hash):
                if builder is not None and day in builder.timestamp_bug_days:
                    findings.append(
                        OracleFinding(
                            oracle="relay-consistency",
                            message=(
                                f"{relay.name} delivered a non-canonical "
                                f"block from {builder_name} (timestamp bug)"
                            ),
                            block_number=payload.block_number,
                            attributed_to=(KIND_TIMESTAMP_BUG, builder_name),
                        )
                    )
                else:
                    findings.append(
                        OracleFinding(
                            oracle="relay-consistency",
                            message=(
                                f"{relay.name} delivered block "
                                f"{payload.block_hash} that never landed "
                                "on chain"
                            ),
                            block_number=payload.block_number,
                        )
                    )
                continue

            obs = obs_by_number.get(payload.block_number)
            if obs is None:
                continue  # canonical but outside the collected window
            delivered = obs.delivered_value_wei
            if payload.value_claimed_wei <= delivered:
                continue
            # Promised > delivered: must be attributable to a failure mode.
            overshoot = payload.value_claimed_wei - delivered
            message = (
                f"{relay.name} promised {payload.value_claimed_wei} but "
                f"{delivered} reached the proposer (+{overshoot} wei, "
                f"builder {builder_name})"
            )
            if day is not None and day in relay.validation_outage_days:
                attributed = (KIND_VALIDATION_OUTAGE, relay.name)
            elif (
                builder_name in relay.internal_builders
                and not relay.validates_internal_builders
            ):
                attributed = (KIND_INTERNAL_MISPROMISE, relay.name)
            elif relay.validation_miss_rate > 0:
                attributed = (KIND_VALIDATION_MISS, relay.name)
            else:
                attributed = None
            findings.append(
                OracleFinding(
                    oracle="relay-consistency",
                    message=message,
                    block_number=payload.block_number,
                    attributed_to=attributed,
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Oracle 4: mempool-observation causality
# ---------------------------------------------------------------------------


def check_mempool_causality(world, dataset: StudyDataset) -> list[OracleFinding]:
    """Public transactions were first seen before inclusion; private ones never."""
    findings: list[OracleFinding] = []
    observations = world.observations
    for obs in dataset.table.to_observations():
        block = world.chain.block_by_number(obs.number)
        block_time = float(block.header.timestamp)
        if obs.private_tx_count != len(obs.private_tx_hashes):
            findings.append(
                OracleFinding(
                    oracle="mempool-causality",
                    message=(
                        f"private_tx_count {obs.private_tx_count} != "
                        f"{len(obs.private_tx_hashes)} recorded hashes"
                    ),
                    block_number=obs.number,
                )
            )
        for tx in block.transactions:
            first_seen = observations.first_seen(tx.tx_hash)
            classified_private = tx.tx_hash in obs.private_tx_hashes
            publicly_seen = first_seen is not None and first_seen <= block_time
            if classified_private and publicly_seen:
                findings.append(
                    OracleFinding(
                        oracle="mempool-causality",
                        message=(
                            f"tx {tx.tx_hash} classified private but a "
                            f"monitor saw it at {first_seen} <= inclusion "
                            f"{block_time}"
                        ),
                        block_number=obs.number,
                    )
                )
            elif not classified_private and not publicly_seen:
                findings.append(
                    OracleFinding(
                        oracle="mempool-causality",
                        message=(
                            f"tx {tx.tx_hash} classified public but never "
                            f"observed before inclusion at {block_time}"
                        ),
                        block_number=obs.number,
                    )
                )
    return findings


# ---------------------------------------------------------------------------
# Oracle 5: sanctions-screening soundness
# ---------------------------------------------------------------------------


def check_sanctions_soundness(world, dataset: StudyDataset) -> list[OracleFinding]:
    """Screening is reproducible, and compliant-relay leaks are explained.

    Re-screens every block from scratch and compares with the dataset.
    For sanctioned transactions delivered through a *compliant* relay,
    distinguishes: the relay's own lagged list would have caught it
    (violation — the filter just didn't run), only the zero-lag list
    catches it (``sanctions-lag`` anomaly — the stale-copy failure mode),
    or the transaction is not statically catchable at all
    (``censorship-gap`` anomaly — trace-level evasion).
    """
    findings: list[OracleFinding] = []
    screener = SanctionScreener(world.sanctions, world.defi.tokens)
    sanctions = world.sanctions
    for obs in dataset.table.to_observations():
        block = world.chain.block_by_number(obs.number)
        result = world.chain.execution_result(block.block_hash)
        recomputed = tuple(
            screener.screen_block(result.receipts, result.traces, obs.date)
        )
        if recomputed != obs.sanctioned_tx_hashes:
            findings.append(
                OracleFinding(
                    oracle="sanctions-soundness",
                    message=(
                        f"re-screening found {len(recomputed)} sanctioned "
                        f"txs, dataset recorded "
                        f"{len(obs.sanctioned_tx_hashes)}"
                    ),
                    block_number=obs.number,
                )
            )
        if not obs.sanctioned_tx_hashes:
            continue
        compliant_serving = [
            name
            for name in obs.claimed_by_relay
            if name in dataset.compliant_relays and name in world.relays
        ]
        if not compliant_serving:
            continue
        txs_by_hash = {tx.tx_hash: tx for tx in block.transactions}
        current_addresses = sanctions.addresses_as_of(obs.date)
        current_tokens = sanctions.tokens_as_of(obs.date)
        for relay_name in compliant_serving:
            relay = world.relays[relay_name]
            lagged_addresses, lagged_tokens = relay.blocked_view_for(
                sanctions, obs.date
            )
            for tx_hash in obs.sanctioned_tx_hashes:
                tx = txs_by_hash.get(tx_hash)
                if tx is None:
                    continue
                if tx_statically_involves(tx, lagged_addresses, lagged_tokens):
                    findings.append(
                        OracleFinding(
                            oracle="sanctions-soundness",
                            message=(
                                f"{relay_name} delivered tx {tx_hash} its "
                                "own lagged OFAC copy already blocks"
                            ),
                            block_number=obs.number,
                        )
                    )
                elif tx_statically_involves(
                    tx, current_addresses, current_tokens
                ):
                    findings.append(
                        OracleFinding(
                            oracle="sanctions-soundness",
                            message=(
                                f"{relay_name} delivered tx {tx_hash} only "
                                "its stale OFAC copy missed"
                            ),
                            block_number=obs.number,
                            attributed_to=(KIND_SANCTIONS_LAG, relay_name),
                        )
                    )
                else:
                    findings.append(
                        OracleFinding(
                            oracle="sanctions-soundness",
                            message=(
                                f"{relay_name} delivered tx {tx_hash} no "
                                "static filter can catch"
                            ),
                            block_number=obs.number,
                            attributed_to=(KIND_CENSORSHIP_GAP, relay_name),
                        )
                    )
    return findings


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

#: The oracle catalogue, in documentation order (DESIGN.md §7).
ORACLES = (
    ("conservation", check_conservation),
    ("chain-validity", check_chain_validity),
    ("relay-consistency", check_relay_consistency),
    ("mempool-causality", check_mempool_causality),
    ("sanctions-soundness", check_sanctions_soundness),
)


def run_oracles(world, dataset: StudyDataset | None = None) -> OracleReport:
    """Run every oracle over a finished world; collects the dataset if needed."""
    if dataset is None:
        dataset = collect_study_dataset(world)
    findings: list[OracleFinding] = []
    for _, oracle in ORACLES:
        findings.extend(oracle(world, dataset))
    return OracleReport(findings=tuple(findings))
