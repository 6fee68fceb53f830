"""repro — a reproduction of "Ethereum's Proposer-Builder Separation:
Promises and Realities" (Heimbach, Kiffer, Ferreira Torres, Wattenhofer;
ACM IMC 2023).

The package has two halves:

* a calibrated agent-based simulator of the post-merge Ethereum + PBS
  ecosystem (``repro.simulation`` and everything below it), and
* the paper's measurement pipeline (``repro.datasets`` +
  ``repro.analysis``), which reads only the artefacts a real study could
  collect.

Typical use::

    from repro.simulation import SimulationConfig, build_world
    from repro.datasets import collect_study_dataset
    from repro.analysis import daily_pbs_share

    world = build_world(SimulationConfig(num_days=30)).run()
    dataset = collect_study_dataset(world)
    series = daily_pbs_share(dataset)

Scripts import from these three packages, and everything else from the
module that defines it.

See README.md for the full tour, DESIGN.md for the substitution table, and
EXPERIMENTS.md for paper-vs-measured results.
"""
