"""Tests for the command-line interface."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main
from repro.experiments.cache import CACHE_DIR_ENV, CACHE_ENABLE_ENV
from repro.experiments.experiments import EXPERIMENTS
from repro.experiments.parallel import JOBS_ENV
from repro.experiments.runner import RunSettings, run_benchmark


class TestParser:
    def test_every_experiment_has_a_subcommand(self):
        parser = build_parser()
        for name in EXPERIMENTS:
            args = parser.parse_args([name, "--quick"])
            assert args.command == name
            assert args.quick

    def test_jobs_and_fresh_flags(self):
        parser = build_parser()
        args = parser.parse_args(["figure1", "--quick", "--jobs", "4", "--fresh"])
        assert args.jobs == 4
        assert args.fresh

    def test_cache_subcommand(self):
        parser = build_parser()
        assert parser.parse_args(["cache", "stats"]).action == "stats"
        assert parser.parse_args(["cache", "clear"]).action == "clear"
        with pytest.raises(SystemExit):
            parser.parse_args(["cache", "nope"])

    def test_run_subcommand(self):
        parser = build_parser()
        args = parser.parse_args(
            ["run", "CG.D", "--machine", "B", "--policy", "carrefour-lp", "--quick"]
        )
        assert args.workload == "CG.D"
        assert args.machine == "B"

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out
        assert "CG.D" in out

    def test_run_single_benchmark(self, capsys):
        code = main(
            ["run", "Kmeans", "--machine", "A", "--policy", "linux-4k",
             "--quick", "--scale", "0.25"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Kmeans" in out
        assert "runtime=" in out

    def test_jobs_flag_sets_env(self, capsys, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "1")  # registers restore-on-teardown
        code = main(
            ["run", "Kmeans", "--machine", "A", "--policy", "linux-4k",
             "--quick", "--scale", "0.25", "--jobs", "3"]
        )
        assert code == 0
        assert os.environ[JOBS_ENV] == "3"

    def test_fresh_flag_disables_persistent_cache(self, capsys, monkeypatch):
        monkeypatch.setenv(CACHE_ENABLE_ENV, "1")  # registers restore-on-teardown
        code = main(
            ["run", "Kmeans", "--machine", "A", "--policy", "linux-4k",
             "--quick", "--scale", "0.25", "--fresh"]
        )
        assert code == 0
        assert os.environ[CACHE_ENABLE_ENV] == "0"

    def test_cache_stats_and_clear(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cli-cache"))
        from repro.experiments.runner import clear_cache

        clear_cache()
        run_benchmark("Kmeans", "A", "linux-4k", RunSettings.quick())
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:    1" in out
        assert main(["cache", "clear"]) == 0
        out = capsys.readouterr().out
        assert "removed 1" in out
        assert main(["cache", "stats"]) == 0
        assert "entries:    0" in capsys.readouterr().out
        clear_cache()


class TestBadInput:
    """Unknown names are usage errors: one line on stderr, exit code 2."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["run", "CG.D", "--policy", "carrefour-lpp", "--quick"],
                "unknown policy 'carrefour-lpp' (did you mean 'carrefour-lp'?)",
            ),
            (["run", "CG.E", "--quick"], "unknown workload 'CG.E' (did you mean 'CG.D'?)"),
            (["profile", "CG.D", "--policy", "zzz", "--quick"], "unknown policy 'zzz'"),
            (
                ["trace", "Kmeans", "--policy", "thp+carrefour-2n", "--quick"],
                "unknown policy 'carrefour-2n' (did you mean 'carrefour-2m'?)",
            ),
            (
                ["scenario", "--policies", "carrefour-lpp", "--quick"],
                "unknown policy 'carrefour-lpp' (did you mean 'carrefour-lp'?)",
            ),
            (
                ["scenario", "--workloads", "SSCA.21", "--quick"],
                "unknown workload 'SSCA.21' (did you mean 'SSCA.20'?)",
            ),
        ],
    )
    def test_unknown_name(self, capsys, argv, message):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_python_dash_m_repro(self):
        env = dict(os.environ)
        env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).parents[1])

        def run(*argv):
            return subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                capture_output=True, text=True, env=env, timeout=120,
            )

        listed = run("list")
        assert listed.returncode == 0, listed.stderr
        assert "figure1" in listed.stdout
        bad = run("run", "CG.D", "--policy", "carrefour-lpp")
        assert bad.returncode == 2
        assert bad.stderr == (
            "error: unknown policy 'carrefour-lpp' (did you mean 'carrefour-lp'?)\n"
        )
