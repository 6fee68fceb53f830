"""Tests for the command-line interface."""

import pytest

from repro.cli import REPORTS, build_parser, main

FAST = ["--days", "4", "--blocks-per-day", "4", "--validators", "60"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.days == 30
        assert args.export is None
        assert args.regime == "mev_boost"

    def test_report_only_parsing(self):
        args = build_parser().parse_args(["report", "--only", "fig04,table4"])
        assert args.only == "fig04,table4"

    def test_conformance_defaults(self):
        args = build_parser().parse_args(["conformance"])
        assert not args.skip_replay

    def test_conformance_flags(self):
        args = build_parser().parse_args(["conformance", "--skip-replay"])
        assert args.skip_replay
        with pytest.raises(SystemExit):
            build_parser().parse_args(["conformance", "--scenarios", "f.yml"])

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--workers", "0"], "workers must be at least 1, got 0"),
            (["--workers", "-3"], "workers must be at least 1, got -3"),
            (["--port", "70000"], "port must be between 0 and 65535, got 70000"),
            (["--port", "-1"], "port must be between 0 and 65535, got -1"),
            (["--port", "http"], "invalid tcp_port value: 'http'"),
        ],
        ids=[
            "workers-0", "workers-negative", "port-70000", "port-negative", "port-text"
        ],
    )
    def test_serve_rejects_bad_socket_flags(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["serve", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.rstrip().endswith(f"argument {argv[0]}: {message}")
        assert "repro serve: error:" in err

    def test_serve_accepts_socket_flag_bounds(self):
        args = build_parser().parse_args(["serve", "--port", "0", "--workers", "1"])
        assert (args.port, args.workers) == (0, 1)
        args = build_parser().parse_args(["serve", "--port", "65535"])
        assert (args.port, args.workers) == (65535, 1)


class TestConfigErrors:
    """Out-of-range flag values exit 2 naming the flag, with no traceback."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["simulate", "--days", "0"],
                "argument --days: num_days must be at least 1, got 0",
            ),
            (
                ["simulate", "--days", "500"],
                "argument --days: num_days cannot exceed the study window (198), got 500",
            ),
            (
                ["serve", "--blocks-per-day", "0"],
                "argument --blocks-per-day: blocks_per_day must be at least 1, got 0",
            ),
        ],
        ids=["simulate-days-0", "simulate-days-500", "serve-blocks-per-day-0"],
    )
    def test_flag_named_in_usage_error(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.rstrip().endswith(message)
        assert f"repro {argv[0]}: error:" in err
        assert "extended_horizon" not in err
        assert "Traceback" not in err


class TestCommands:
    def test_simulate_runs(self, capsys):
        assert main(["simulate", *FAST]) == 0
        out = capsys.readouterr().out
        assert "blocks:" in out
        assert "PBS share" in out

    def test_simulate_exports(self, tmp_path, capsys):
        assert main(["simulate", *FAST, "--export", str(tmp_path)]) == 0
        assert (tmp_path / "blocks.csv").exists()
        assert (tmp_path / "inventory.json").exists()

    def test_inventory(self, capsys):
        assert main(["inventory", *FAST]) == 0
        out = capsys.readouterr().out
        assert "OFAC addresses" in out
        assert "Table 1" in out

    def test_report_selected(self, capsys):
        assert main(["report", *FAST, "--only", "fig04,table4"]) == 0
        out = capsys.readouterr().out
        assert "== fig04 ==" in out
        assert "== table4 ==" in out

    def test_report_rejects_unknown(self, capsys):
        assert main(["report", *FAST, "--only", "fig99"]) == 2
        err = capsys.readouterr().err
        assert "unknown reports" in err

    def test_report_all_known_names_registered(self):
        from repro.cli import _REPORT_RUNNERS

        assert set(REPORTS) <= set(_REPORT_RUNNERS)

    def test_epbs_flag(self, capsys):
        assert main(["simulate", *FAST, "--regime", "epbs"]) == 0
