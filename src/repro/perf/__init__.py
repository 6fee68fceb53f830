"""Performance layer: instrumentation, artifacts, sharded execution.

This package hosts the cross-cutting performance machinery:

* :mod:`repro.perf.metrics` — a lightweight timer/counter registry every
  :class:`~repro.simulation.world.World` carries (``world.perf``).
* :mod:`repro.perf.artifacts` — the persistent study-dataset artifact
  cache keyed by a :class:`~repro.simulation.config.SimulationConfig`
  content hash.
* :mod:`repro.perf.sharding` — process-sharded epoch-segment execution
  (``SimulationConfig.segment_days`` / ``shard_workers``) with a
  deterministic, worker-count-invariant merge.

Everything here is deterministic-by-construction: enabling any of it must
never change a simulated world's bit-identical outcome for a given seed.
"""
