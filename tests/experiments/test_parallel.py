"""Tests for the parallel grid runner and serial/parallel determinism."""

from __future__ import annotations

import os

import pytest

from repro.errors import ConfigurationError
from repro.experiments import runner as runner_mod
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import (
    GridRunner,
    RunSpec,
    _bank_tasks,
    backend_choice,
    resolve_jobs,
)
from repro.experiments.runner import (
    RunSettings,
    clear_cache,
    execute_run,
    run_benchmark,
)
from repro.options import CACHE_DIR_ENV, JOBS_ENV
from repro.workloads import streambank

GRID = [
    RunSpec("Kmeans", "A", "linux-4k"),
    RunSpec("Kmeans", "A", "thp"),
    RunSpec("Kmeans", "A", "carrefour-2m"),
]


@pytest.fixture
def fresh_env(tmp_path, monkeypatch):
    """Isolated cache dir and empty memo for grid-execution tests."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    clear_cache()
    yield
    clear_cache()


def _signature(result):
    """Everything the determinism guarantee covers, comparably packed."""
    return (
        result.runtime_s,
        tuple(result.epoch_times_s),
        result.bank.total("tlb_misses"),
        result.bank.total("page_faults_4k"),
        result.bank.total("page_faults_2m"),
        result.bank.total("time_dram_s"),
        result.bank.total("time_walk_s"),
        result.bank.total("time_ibs_s"),
        float(sum(e.traffic.sum() for e in result.bank.epochs)),
    )


class TestResolveJobs:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setenv(JOBS_ENV, "7")
        assert resolve_jobs(3) == 3

    def test_env(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setenv(JOBS_ENV, "5")
        assert resolve_jobs() == 5

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_default_uses_every_core(self, monkeypatch, cpus):
        # The parent process mostly waits on futures, so the default
        # takes every core; a one-core box stays serial.
        monkeypatch.delenv(JOBS_ENV, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert resolve_jobs() == cpus

    def test_garbage_env_rejected(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "lots")
        with pytest.raises(ConfigurationError, match="REPRO_JOBS='lots'"):
            resolve_jobs()

    def test_minimum_one(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(0) == 1
        assert resolve_jobs(-4) == 1
        assert resolve_jobs() >= 1

    def test_clamped_to_cpu_count(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert resolve_jobs(16) == 2
        monkeypatch.setenv(JOBS_ENV, "16")
        assert resolve_jobs() == 2

    def test_cpu_count_unknown(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        # An unknown cpu count counts as one core: any jobs request
        # collapses to the serial loop.
        assert resolve_jobs(4) == 1
        assert resolve_jobs(4, backend="process") == 1


class TestBackendChoice:
    def test_follows_core_count(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        backend, reason = backend_choice()
        assert backend == "process"
        assert "cpu_count=8" in reason
        # One core: a pool has nothing to overlap.
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        backend, reason = backend_choice()
        assert backend == "serial"
        assert "cpu_count=1" in reason and "serial" in reason

    def test_serial_backend_resolves_one_job(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setenv(JOBS_ENV, "8")
        assert resolve_jobs(backend="serial") == 1
        assert resolve_jobs(16, backend="serial") == 1
        assert resolve_jobs(backend="process") == 8

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(2, backend="thread")


class TestRunSpec:
    def test_describe(self):
        assert RunSpec("WC", "B", "thp").describe() == "WC@B/thp"
        assert (
            RunSpec("WC", "B", "linux-4k", backing_1g=True).describe()
            == "WC@B/linux-4k+1g"
        )


def _no_runs(monkeypatch):
    def _boom(*args, **kwargs):
        raise AssertionError("re-executed a cached spec")

    monkeypatch.setattr(runner_mod, "execute_run", _boom)


class TestGridExecution:
    def test_serial_jobs1(self, fresh_env):
        settings = RunSettings.quick()
        results = GridRunner(settings, jobs=1).run(GRID[:2])
        assert set(results) == set(GRID[:2])
        for result in results.values():
            assert result.runtime_s > 0

    def test_empty_grid(self, fresh_env):
        assert GridRunner(RunSettings.quick()).run([]) == {}

    def test_dedup_keeps_first_seen_order(self, fresh_env, monkeypatch):
        settings = RunSettings.quick()
        executed = []
        execute = runner_mod.execute_run

        def counted(spec, run_settings):
            executed.append(spec)
            return execute(spec, run_settings)

        monkeypatch.setattr(runner_mod, "execute_run", counted)
        grid = [GRID[1], GRID[0], GRID[1], GRID[0]]
        results = GridRunner(settings, jobs=1).run(grid)
        assert list(results) == [GRID[1], GRID[0]]
        assert executed == [GRID[1], GRID[0]]

    def test_machine_aliases_run_once(self, fresh_env):
        settings = RunSettings.quick()
        alias = RunSpec("Kmeans", "machine-A", "linux-4k")
        results = GridRunner(settings, jobs=1).run([GRID[0], alias])
        assert results[alias] is results[GRID[0]]

    def test_execute_run_reached_through_the_module(self, fresh_env, monkeypatch):
        """Serial runs call ``runner.execute_run`` as a module attribute,
        so wrapping it observes every run (the pool's workers too)."""
        _no_runs(monkeypatch)
        with pytest.raises(AssertionError, match="re-executed"):
            GridRunner(RunSettings.quick(), jobs=1).run(GRID[:1])

    def test_parallel_matches_serial_and_cached(self, fresh_env):
        """The acceptance guarantee: parallel == serial == cached."""
        settings = RunSettings.quick()
        serial = {spec: execute_run(spec, settings) for spec in GRID}

        parallel = GridRunner(settings, jobs=2).run(GRID)

        for spec in GRID:
            assert _signature(parallel[spec]) == _signature(serial[spec]), spec

        # Third path: a fresh process-level view answered from the
        # persistent cache (memo cleared, entries on disk).
        clear_cache()
        for spec in GRID:
            cached = run_benchmark(
                spec.workload, spec.machine, spec.policy, settings,
                backing_1g=spec.backing_1g,
            )
            assert _signature(cached) == _signature(serial[spec]), spec

    def test_results_installed_in_memo(self, fresh_env):
        settings = RunSettings.quick()
        results = GridRunner(settings, jobs=2).run(GRID[:2])
        for spec in GRID[:2]:
            again = run_benchmark(
                spec.workload, spec.machine, spec.policy, settings
            )
            assert again is results[spec]

    def test_memo_keyed_on_the_fingerprint(self, fresh_env):
        settings = RunSettings.quick()
        results = GridRunner(settings, jobs=1).run(GRID[:1])
        key = settings.fingerprint(GRID[0])
        assert runner_mod._CACHE == {key: results[GRID[0]]}

    def test_second_run_hits_cache(self, fresh_env, monkeypatch):
        settings = RunSettings.quick()
        first = GridRunner(settings, jobs=1).run(GRID[:1])
        _no_runs(monkeypatch)
        second = GridRunner(settings, jobs=1).run(GRID[:1])
        assert second[GRID[0]] is first[GRID[0]]  # memo hit, same object

    def test_pool_submits_only_the_misses(self, fresh_env, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        settings = RunSettings.quick()
        first = GridRunner(settings, jobs=2).run(GRID[:1])
        submitted = []

        def recording(self, misses, jobs):
            submitted.extend(misses)
            return [(spec, execute_run(spec, settings)) for spec in misses]

        monkeypatch.setattr(GridRunner, "_run_pool", recording)
        results = GridRunner(settings, jobs=2).run(GRID)
        assert submitted == GRID[1:]
        assert results[GRID[0]] is first[GRID[0]]

    def test_use_cache_false_reruns(self, fresh_env):
        settings = RunSettings.quick()
        first = GridRunner(settings, jobs=1).run(GRID[:1])
        second = GridRunner(settings, jobs=1).run(GRID[:1], use_cache=False)
        assert second[GRID[0]] is not first[GRID[0]]
        assert _signature(second[GRID[0]]) == _signature(first[GRID[0]])

    def test_use_cache_false_stores_nothing(self, fresh_env):
        settings = RunSettings.quick()
        GridRunner(settings, jobs=1).run(GRID[:1], use_cache=False)
        assert runner_mod._CACHE == {}
        assert ResultCache.default().stats().n_entries == 0


#: Two workloads x two policies: two stream banks, four runs.
AFFINE_GRID = [
    RunSpec(workload, "A", policy)
    for workload in ("Kmeans", "SSCA.20")
    for policy in ("linux-4k", "thp")
]


class TestBankAffinity:
    """Runs sharing a stream bank go to one pool worker.

    Exact counts, so a slow runner cannot make these flake.
    """

    def test_forked_grid_generates_each_row_once(
        self, fresh_env, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        log = tmp_path / "rows.log"
        generate_row = streambank.StreamBank._generate_row

        def logged(self, block, i):
            with open(log, "a") as fh:
                fh.write(f"{self.fingerprint} {block.epoch0 + i} {os.getpid()}\n")
            return generate_row(self, block, i)

        monkeypatch.setattr(streambank.StreamBank, "_generate_row", logged)
        # Forked workers inherit this process's banks; start from none.
        streambank.clear_stream_banks()
        settings = RunSettings.quick()
        pooled = GridRunner(settings, jobs=2).run(AFFINE_GRID)

        rows = [line.split() for line in log.read_text().splitlines()]
        generated = [(bank, int(epoch)) for bank, epoch, _ in rows]
        assert len(generated) == len(set(generated))
        banks = {bank for bank, _ in generated}
        assert len(banks) == 2
        for bank in banks:
            epochs = sorted(epoch for b, epoch in generated if b == bank)
            assert epochs == list(range(len(epochs)))
            assert len({pid for b, _, pid in rows if b == bank}) == 1
        assert str(os.getpid()) not in {pid for *_, pid in rows}

        # And the pooled results are the serial grid's, bit for bit.
        clear_cache()
        serial = GridRunner(settings, jobs=1).run(AFFINE_GRID, use_cache=False)
        for spec, result in serial.items():
            assert _signature(pooled[spec]) == _signature(result), spec

    def test_one_task_per_bank(self):
        specs = AFFINE_GRID + [
            RunSpec("Kmeans", "machine-A", "carrefour-2m"),
            RunSpec("Kmeans", "A", "thp", backing_1g=True),
        ]
        tasks = _bank_tasks(specs, 2)
        assert tasks == [
            [AFFINE_GRID[0], AFFINE_GRID[1], specs[4]],
            [AFFINE_GRID[2], AFFINE_GRID[3]],
            [specs[5]],
        ]

    def test_fewer_banks_than_workers_still_fills_every_worker(self):
        specs = [
            RunSpec("Kmeans", "A", policy)
            for policy in ("linux-4k", "thp", "carrefour-2m", "carrefour-lp",
                           "autonuma")
        ] + [RunSpec("WC", "A", "thp")]
        for workers in (2, 3, 4, 6):
            tasks = _bank_tasks(specs, workers)
            assert len(tasks) == workers
            assert all(tasks)
            assert [spec for task in tasks for spec in task] == specs
        # Never more tasks than runs.
        assert len(_bank_tasks(specs, 16)) == len(specs)
