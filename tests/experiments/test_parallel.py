"""Tests for the parallel grid runner and serial/parallel determinism."""

from __future__ import annotations

import os
import time

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
from repro.experiments.runner import execute_run, fingerprints, run_benchmark
from repro.options import CACHE_DIR_ENV, CACHE_ENABLE_ENV, JOBS_ENV
from repro.sim.config import SimConfig
from repro.workloads import streambank

GRID = [
    RunSpec("Kmeans", "A", "linux-4k"),
    RunSpec("Kmeans", "A", "thp"),
    RunSpec("Kmeans", "A", "carrefour-2m"),
]


@pytest.fixture
def fresh_env(tmp_path, monkeypatch):
    """An empty result cache of its own for grid-execution tests."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))


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
        config = SimConfig.quick()
        results = GridRunner(config, jobs=1).run(GRID[:2])
        assert set(results) == set(GRID[:2])
        for result in results.values():
            assert result.runtime_s > 0

    def test_empty_grid(self, fresh_env):
        assert GridRunner(SimConfig.quick()).run([]) == {}

    def test_dedup_keeps_first_seen_order(self, fresh_env, monkeypatch):
        config = SimConfig.quick()
        executed = []
        execute = runner_mod.execute_run

        def counted(spec, run_config):
            executed.append(spec)
            return execute(spec, run_config)

        monkeypatch.setattr(runner_mod, "execute_run", counted)
        grid = [GRID[1], GRID[0], GRID[1], GRID[0]]
        results = GridRunner(config, jobs=1).run(grid)
        assert list(results) == [GRID[1], GRID[0]]
        assert executed == [GRID[1], GRID[0]]

    def test_machine_aliases_run_once(self, fresh_env):
        config = SimConfig.quick()
        alias = RunSpec("Kmeans", "machine-A", "linux-4k")
        results = GridRunner(config, jobs=1).run([GRID[0], alias])
        assert results[alias] is results[GRID[0]]

    def test_execute_run_reached_through_the_module(self, fresh_env, monkeypatch):
        """Serial runs call ``runner.execute_run`` as a module attribute,
        so wrapping it observes every run (the pool's workers too)."""
        _no_runs(monkeypatch)
        with pytest.raises(AssertionError, match="re-executed"):
            GridRunner(SimConfig.quick(), jobs=1).run(GRID[:1])

    def test_parallel_matches_serial_and_cached(self, fresh_env):
        """The acceptance guarantee: parallel == serial == cached."""
        config = SimConfig.quick()
        serial = {spec: execute_run(spec, config) for spec in GRID}

        parallel = GridRunner(config, jobs=2).run(GRID)

        for spec in GRID:
            assert _signature(parallel[spec]) == _signature(serial[spec]), spec

        # Third path: answered from the result cache on disk.
        for spec in GRID:
            cached = run_benchmark(
                spec.workload, spec.machine, spec.policy, config,
                backing_1g=spec.backing_1g,
            )
            assert _signature(cached) == _signature(serial[spec]), spec

    def test_second_run_hits_cache(self, fresh_env, monkeypatch):
        config = SimConfig.quick()
        first = GridRunner(config, jobs=1).run(GRID[:1])
        _no_runs(monkeypatch)
        second = GridRunner(config, jobs=1).run(GRID[:1])
        assert second[GRID[0]] is not first[GRID[0]]  # read from disk
        assert _signature(second[GRID[0]]) == _signature(first[GRID[0]])

    def test_pool_submits_only_the_misses(self, fresh_env, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        config = SimConfig.quick()
        first = GridRunner(config, jobs=2).run(GRID[:1])
        submitted = []

        def recording(self, misses, jobs):
            submitted.extend(misses)
            return [(spec, execute_run(spec, config)) for spec in misses]

        monkeypatch.setattr(GridRunner, "_run_pool", recording)
        results = GridRunner(config, jobs=2).run(GRID)
        assert submitted == GRID[1:]
        assert _signature(results[GRID[0]]) == _signature(first[GRID[0]])

    def test_an_interrupted_grid_keeps_its_finished_runs(
        self, fresh_env, monkeypatch
    ):
        """Each run is stored as it finishes: a serial grid interrupted
        at its fourth run keeps three, and a re-run simulates only the
        other three."""
        config = SimConfig.quick()
        result = execute_run(GRID[0], config)
        grid = [
            RunSpec(workload, "A", policy)
            for workload in ("Kmeans", "WC")
            for policy in ("linux-4k", "thp", "carrefour-2m")
        ]
        executed = []

        def canned(spec, run_config):
            if len(executed) == 3:
                raise KeyboardInterrupt
            executed.append(spec)
            return result

        monkeypatch.setattr(runner_mod, "execute_run", canned)
        with pytest.raises(KeyboardInterrupt):
            GridRunner(config, jobs=1).run(grid)
        assert ResultCache.default().stats().n_entries == 3
        finished = executed[:]
        executed.clear()
        monkeypatch.setattr(
            runner_mod, "execute_run",
            lambda spec, run_config: executed.append(spec) or result,
        )
        GridRunner(config, jobs=1).run(grid)
        assert sorted(finished + executed, key=grid.index) == grid
        assert len(executed) == 3

    def test_cache_off_reruns(self, fresh_env, monkeypatch):
        """``REPRO_CACHE=0`` (what ``--fresh`` sets) simulates again."""
        config = SimConfig.quick()
        first = GridRunner(config, jobs=1).run(GRID[:1])
        monkeypatch.setenv(CACHE_ENABLE_ENV, "0")
        second = GridRunner(config, jobs=1).run(GRID[:1])
        assert second[GRID[0]] is not first[GRID[0]]
        assert _signature(second[GRID[0]]) == _signature(first[GRID[0]])

    def test_cache_off_stores_nothing(self, fresh_env, monkeypatch):
        """``REPRO_CACHE=0`` (what ``--fresh`` sets) stores nothing."""
        monkeypatch.setenv(CACHE_ENABLE_ENV, "0")
        GridRunner(SimConfig.quick(), jobs=1).run(GRID[:1])
        assert ResultCache.default().stats().n_entries == 0


#: Two stream banks: Kmeans@A under four policies, WC@A under two.
FAILING_GRID = [
    RunSpec("Kmeans", "A", policy)
    for policy in ("linux-4k", "thp", "carrefour-2m", "carrefour-lp")
] + [RunSpec("WC", "A", policy) for policy in ("linux-4k", "thp")]


class TestPoolFailures:
    """A run's own exception propagates from the pool; only a pool that
    breaks leaves work to the serial loop, and only what it did not
    return.  A call log under ``tmp_path`` sees every process."""

    @staticmethod
    def _logged(monkeypatch, log, fail):
        execute = runner_mod.execute_run

        def logged(spec, config):
            with open(log, "a") as fh:
                fh.write(f"{spec.describe()} {os.getpid()}\n")
            fail(spec)
            return execute(spec, config)

        monkeypatch.setattr(runner_mod, "execute_run", logged)

    @staticmethod
    def _calls(log):
        return [line.split() for line in log.read_text().splitlines()]

    def test_a_run_that_raises_in_the_pool_runs_no_spec_twice(
        self, fresh_env, monkeypatch, tmp_path
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        log = tmp_path / "calls.log"

        def fail(spec):
            if spec.policy == "carrefour-2m":
                raise RuntimeError(f"{spec.describe()} failed")

        self._logged(monkeypatch, log, fail)
        with pytest.raises(RuntimeError, match=r"^Kmeans@A/carrefour-2m failed$"):
            GridRunner(SimConfig.quick(), jobs=2).run(FAILING_GRID)
        calls = self._calls(log)
        runs = [run for run, _ in calls]
        assert len(runs) == len(set(runs))
        assert str(os.getpid()) not in {pid for _, pid in calls}

    def test_a_broken_pool_leaves_only_what_it_did_not_return(
        self, fresh_env, monkeypatch, tmp_path
    ):
        """The WC worker dies once the Kmeans task's results are stored:
        the parent then runs WC's runs alone, and Kmeans's no more."""
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        log = tmp_path / "calls.log"
        parent = os.getpid()
        grid = FAILING_GRID[:2] + FAILING_GRID[4:]

        def fail(spec):
            if spec.workload == "WC" and os.getpid() != parent:
                deadline = time.monotonic() + 20
                while (
                    ResultCache.default().stats().n_entries < 2
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                os._exit(1)

        self._logged(monkeypatch, log, fail)
        results = GridRunner(SimConfig.quick(), jobs=2).run(grid)
        assert set(results) == set(grid)
        calls = self._calls(log)
        in_parent = [run for run, pid in calls if pid == str(parent)]
        assert sorted(in_parent) == ["WC@A/linux-4k", "WC@A/thp"]
        assert sorted(run for run, _ in calls if run.startswith("Kmeans")) == [
            "Kmeans@A/linux-4k", "Kmeans@A/thp",
        ]
        assert ResultCache.default().stats().n_entries == 4


class TestOneCacheLayer:
    """The disk store is the only result cache, and ``REPRO_CACHE`` its
    only switch.  Exact counts, so a slow runner cannot make these flake.
    """

    #: Three distinct runs, one of them twice and once under an alias.
    DUPLICATED = GRID + [GRID[1], RunSpec("Kmeans", "machine-A", "thp")]

    @staticmethod
    def _count(monkeypatch):
        """Record every ``execute_run`` and every store read and write."""
        calls = {"run": [], "get": [], "put": []}
        execute = runner_mod.execute_run
        get, put = ResultCache.get, ResultCache.put

        def counted_run(spec, config):
            calls["run"].append(spec)
            return execute(spec, config)

        def counted_get(self, key, *args, **kwargs):
            calls["get"].append(key)
            return get(self, key, *args, **kwargs)

        def counted_put(self, key, result):
            calls["put"].append(key)
            return put(self, key, result)

        monkeypatch.setattr(runner_mod, "execute_run", counted_run)
        monkeypatch.setattr(ResultCache, "get", counted_get)
        monkeypatch.setattr(ResultCache, "put", counted_put)
        return calls

    def test_a_warm_grid_reads_each_key_from_disk_once(
        self, fresh_env, monkeypatch
    ):
        config = SimConfig.quick()
        keys = set(fingerprints(GRID, config).values())
        cold = GridRunner(config, jobs=1).run(self.DUPLICATED)
        assert ResultCache.default().stats().n_entries == 3
        calls = self._count(monkeypatch)
        warm = GridRunner(config, jobs=1).run(self.DUPLICATED)
        assert calls["run"] == []
        assert calls["put"] == []
        assert sorted(calls["get"]) == sorted(keys)
        for spec in self.DUPLICATED:
            assert _signature(warm[spec]) == _signature(cold[spec])

    def test_cache_off_runs_each_distinct_run_once_and_stores_nothing(
        self, fresh_env, monkeypatch
    ):
        monkeypatch.setenv(CACHE_ENABLE_ENV, "0")
        calls = self._count(monkeypatch)
        results = GridRunner(SimConfig.quick(), jobs=1).run(self.DUPLICATED)
        assert sorted(calls["run"], key=repr) == sorted(GRID, key=repr)
        assert calls["get"] == calls["put"] == []
        assert ResultCache.default().stats().n_entries == 0
        assert results[self.DUPLICATED[-1]] is results[GRID[1]]

    def test_nothing_outlives_a_run_call_in_process(
        self, fresh_env, monkeypatch
    ):
        """Two grids in one process share no results: with the store
        off, the second simulates everything again."""
        monkeypatch.setenv(CACHE_ENABLE_ENV, "0")
        GridRunner(SimConfig.quick(), jobs=1).run(GRID[:2])
        calls = self._count(monkeypatch)
        GridRunner(SimConfig.quick(), jobs=1).run(GRID[:2])
        assert calls["run"] == GRID[:2]


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
        config = SimConfig.quick()
        pooled = GridRunner(config, jobs=2).run(AFFINE_GRID)

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
        monkeypatch.setenv(CACHE_ENABLE_ENV, "0")
        serial = GridRunner(config, jobs=1).run(AFFINE_GRID)
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
            flat = [spec for task in tasks for spec in task]
            assert sorted(flat, key=specs.index) == specs
            # Each task keeps its runs in grid order.
            assert all(task == sorted(task, key=specs.index) for task in tasks)
        # Never more tasks than runs.
        assert len(_bank_tasks(specs, 16)) == len(specs)

    def test_larger_tasks_go_first(self):
        """Tasks sort by runs times the machine's cores (A: 24, B: 64),
        most first; equal ones keep grid order."""
        specs = [
            RunSpec("WC", "A", "thp"),
            RunSpec("Kmeans", "A", "linux-4k"),
            RunSpec("Kmeans", "A", "thp"),
            RunSpec("Kmeans", "A", "carrefour-2m"),
            RunSpec("IS.D", "B", "thp"),
            RunSpec("SSCA.20", "A", "thp"),
            RunSpec("CG.D", "B", "thp"),
            RunSpec("CG.D", "B", "linux-4k"),
        ]
        tasks = _bank_tasks(specs, 2)
        assert [[specs.index(spec) for spec in task] for task in tasks] == [
            [6, 7],  # 2 x 64
            [1, 2, 3],  # 3 x 24
            [4],  # 1 x 64
            [0],  # 1 x 24
            [5],  # 1 x 24, after WC as in the grid
        ]
        serial = _bank_tasks(list(reversed(specs)), 1)
        assert [task[0].workload for task in serial[-2:]] == ["SSCA.20", "WC"]
