"""Tests for the command-line interface."""

import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import build_parser, main
from repro.experiments.experiments import EXPERIMENTS
from repro.experiments import runner as runner_mod
from repro.experiments import scenario_runner
from repro.experiments.runner import run_benchmark
from repro.options import (
    CACHE_DIR_ENV,
    CACHE_ENABLE_ENV,
    CHECK_ENV,
    JOBS_ENV,
    TRACE_FILE_ENV,
)
from repro.sim.config import SimConfig


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

    @pytest.mark.parametrize(
        "seed", ["-102", "99999999999999999999999"], ids=["negative", "past-64-bits"]
    )
    def test_any_integer_seed_runs(self, capsys, seed):
        """SSCA.20's regions salt their owner hash with ``seed + 101``
        and ``seed + 777``: a seed below -101, or one past 64 bits,
        runs like any other."""
        code = main(
            ["run", "SSCA.20", "--machine", "A", "--policy", "linux-4k",
             "--quick", "--scale", "0.25", "--seed", seed]
        )
        out, err = capsys.readouterr()
        assert code == 0
        assert "runtime=" in out
        assert err == ""

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
        run_benchmark("Kmeans", "A", "linux-4k", SimConfig.quick())
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:    1" in out
        assert main(["cache", "clear"]) == 0
        out = capsys.readouterr().out
        assert "removed 1" in out
        assert main(["cache", "stats"]) == 0
        assert "entries:    0" in capsys.readouterr().out


class TestBadInput:
    """Bad input is a usage error: one line on stderr, exit code 2."""

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

    @pytest.mark.parametrize(
        "name, value, message",
        [
            (
                JOBS_ENV,
                "two",
                "REPRO_JOBS='two' is not an integer; use a count such as 4",
            ),
            (
                CHECK_ENV,
                "maybe",
                "REPRO_CHECK='maybe' is not on/off; use one of"
                " 1, true, on, yes, 0, false, off, no",
            ),
            (
                CACHE_ENABLE_ENV,
                "nope",
                "REPRO_CACHE='nope' is not on/off; use one of"
                " 1, true, on, yes, 0, false, off, no",
            ),
        ],
    )
    def test_bad_runtime_option(self, capsys, monkeypatch, name, value, message):
        monkeypatch.setenv(name, value)
        argv = ["run", "Kmeans", "--quick", "--scale", "0.25"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "profile, trace", [("2", "enabled"), ("1", "1"), ("0", "0")]
    )
    def test_retired_variables_change_nothing(
        self, capsys, monkeypatch, profile, trace
    ):
        """``REPRO_PROFILE`` and ``REPRO_TRACE`` are no longer read: a
        leftover value, malformed or not, is neither rejected nor
        turns anything on."""
        monkeypatch.setenv(CACHE_ENABLE_ENV, "1")  # registers restore-on-teardown
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        argv = ["run", "Kmeans", "--policy", "carrefour-2m", "--quick",
                "--scale", "0.25", "--fresh"]
        assert main(argv) == 0
        plain = capsys.readouterr()
        monkeypatch.setenv("REPRO_PROFILE", profile)
        monkeypatch.setenv("REPRO_TRACE", trace)
        assert main(argv) == 0
        assert capsys.readouterr() == plain
        assert plain.err == ""

    @pytest.mark.parametrize(
        "argv, name, value",
        [
            (["figure1", "--quick"], JOBS_ENV, "two"),
            (["figure3", "--quick"], CACHE_ENABLE_ENV, "nope"),
            (["scenario", "--quick"], CHECK_ENV, "maybe"),
        ],
    )
    def test_bad_runtime_option_stops_a_grid(
        self, capsys, monkeypatch, argv, name, value
    ):
        """Grid drivers and scenarios read the options where they
        start, so a bad variable fails before any run."""
        monkeypatch.setenv(name, value)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {name}={value!r} is not ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("rate", ["nan", "inf", "1e19"])
    def test_scenario_rate_outside_the_poisson_range(self, capsys, rate):
        assert main(["scenario", "--rate", rate, "--quick"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: arrival_rate must be finite and in [0, 1000000],"
            f" not {float(rate)!r}\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    @pytest.mark.parametrize("command", ["figure1", "run"])
    def test_jobs_below_one(self, capsys, monkeypatch, command, jobs):
        monkeypatch.setenv(JOBS_ENV, "1")  # registers restore-on-teardown
        argv = [command] + (["Kmeans"] if command == "run" else [])
        assert main(argv + ["--quick", "--jobs", jobs]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --jobs {jobs} is not a count of at least 1;"
            " use 1 for serial runs\n"
        )
        assert captured.out == ""
        assert os.environ[JOBS_ENV] == "1"

    def test_repro_jobs_zero(self, capsys, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "0")
        assert main(["figure1", "--quick"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: REPRO_JOBS='0' is not a count of at least 1;"
            " use 1 for serial runs\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "trace, entry",
        [
            ("bad", "bad"),
            ("0:CG.D", "0:CG.D"),
            ("x:CG.D:thp", "x:CG.D:thp"),
            ("0:CG.D:thp:extra", "0:CG.D:thp:extra"),
            ("0:SSCA.20:thp,4:Kmeans:", "4:Kmeans:"),
            ("-1:CG.D:thp", "-1:CG.D:thp"),
        ],
    )
    def test_malformed_scenario_trace(self, capsys, trace, entry):
        assert main(["scenario", f"--trace={trace}", "--quick"]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: --trace entry {entry!r} is not EPOCH:WORKLOAD:POLICY"
            " (e.g. 0:SSCA.20:carrefour-lp)\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, flag",
        [("profile", "--json"), ("trace", "--jsonl")],
    )
    def test_output_path_in_missing_directory(
        self, capsys, tmp_path, command, flag
    ):
        path = tmp_path / "missing" / "out.json"
        argv = [command, "Kmeans", "--quick", "--scale", "0.25", flag, str(path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {flag} {path}: directory {path.parent} does not exist\n"
        )
        # Checked before simulating: the run printed nothing.
        assert captured.out == ""

    @pytest.mark.parametrize(
        "command, flag",
        [("profile", "--json"), ("trace", "--jsonl")],
    )
    def test_output_path_is_a_directory(self, capsys, tmp_path, command, flag):
        argv = [command, "Kmeans", "--quick", "--scale", "0.25", flag, str(tmp_path)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {flag} {tmp_path} is a directory, not a file\n"
        )
        assert captured.out == ""

    #: A cheap invocation of every command that simulates: each artifact
    #: of ``EXPERIMENTS`` and the four single-run commands.
    SIMULATING = {
        **{
            name: [name, "--quick", "--fresh", "--jobs", "1"]
            for name in EXPERIMENTS
        },
        "run": ["run", "Kmeans", "--quick", "--scale", "0.25", "--fresh"],
        "scenario": ["scenario", "--quick", "--machine", "A", "--workloads",
                     "Kmeans", "--max-tenants", "1", "--tenant-epochs", "2",
                     "--fresh"],
        "profile": ["profile", "Kmeans", "--quick", "--scale", "0.25"],
        "trace": ["trace", "Kmeans", "--quick", "--scale", "0.25"],
    }

    @pytest.mark.parametrize("where", ["directory", "missing-directory"])
    @pytest.mark.parametrize("command", sorted(SIMULATING))
    def test_unwritable_trace_file(
        self, capsys, monkeypatch, tmp_path, command, where
    ):
        """A ``REPRO_TRACE_FILE`` that cannot be written stops the
        command before its first simulation, not after the last."""
        path = tmp_path if where == "directory" else tmp_path / "no" / "t.jsonl"
        monkeypatch.setenv(TRACE_FILE_ENV, str(path))
        # Registered so that teardown restores them, should a command
        # get as far as setting them.
        monkeypatch.setenv(CACHE_ENABLE_ENV, "1")
        monkeypatch.setenv(JOBS_ENV, "1")

        def no_runs(*args):
            raise AssertionError("simulated despite a bad trace file")

        monkeypatch.setattr(runner_mod, "build_simulation", no_runs)
        monkeypatch.setattr(runner_mod, "execute_run", no_runs)
        monkeypatch.setattr(scenario_runner, "execute_scenario", no_runs)
        assert main(self.SIMULATING[command]) == 2
        captured = capsys.readouterr()
        if where == "directory":
            message = f"{TRACE_FILE_ENV} {path} is a directory, not a file"
        else:
            message = (
                f"{TRACE_FILE_ENV} {path}: directory {path.parent}"
                " does not exist"
            )
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""

    def test_inconsistent_configuration(self, capsys):
        assert main(["run", "Kmeans", "--scale", "2", "--quick"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: scale must be in (0, 1]\n"
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

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("command", ["list", "policies"])
    def test_closed_stdout_exits_quietly(self, command, unbuffered):
        # `repro list | head -1`, made deterministic: the reader is gone
        # before the first write.  Unbuffered, print() hits the closed
        # pipe; buffered, the flush at exit does.
        env = dict(os.environ)
        env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).parents[1])
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", command],
                stdout=write_end, stderr=subprocess.PIPE, env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.stderr == b""
        assert proc.returncode == 141
