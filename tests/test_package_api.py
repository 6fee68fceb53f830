"""The curated top-level package API stays importable and consistent."""

import repro


class TestPackageApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_headline_workflow_symbols(self):
        assert callable(repro.build_world)
        assert callable(repro.collect_study_dataset)
        config = repro.SimulationConfig(num_days=1, blocks_per_day=1)
        assert (config.num_days, config.blocks_per_day) == (1, 1)

    def test_unit_helpers(self):
        assert repro.to_ether(repro.ether(2)) == 2.0
        assert repro.gwei(1) == 10**9

    def test_study_window_constants(self):
        assert (repro.STUDY_END_DATE - repro.MERGE_DATE).days + 1 == (
            repro.STUDY_NUM_DAYS
        )
