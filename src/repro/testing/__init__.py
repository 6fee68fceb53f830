"""Simulation conformance harness.

Three composable layers that make refactors of the simulator and the
measurement pipeline safe:

* :mod:`~repro.testing.oracles` — invariant checkers run over a finished
  :class:`~repro.simulation.world.World` and its collected dataset (value
  conservation, chain validity, relay-API consistency, mempool causality,
  sanctions-screening soundness);
* :mod:`~repro.testing.scenarios` — declarative fault injection into a
  seeded config's fault plan (:mod:`repro.simulation.faults`), asserting
  the oracles and the analysis layer detect exactly the injected
  anomalies, no more, no fewer;
* :mod:`~repro.testing.differential` — the differential replay matrix:
  one seeded scenario re-run under every performance configuration must
  produce bit-identical digests and oracle-clean results.
"""
