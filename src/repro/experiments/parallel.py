"""The one executor: every artifact's run grid goes through :class:`GridRunner`.

An artifact declares its grid as a list of
:class:`~repro.experiments.runner.RunSpec` and hands it to one
:meth:`GridRunner.run` call, which returns ``{spec: result}``;
:func:`repro.experiments.runner.run_benchmark` is the same call with a
one-spec grid.  ``run`` deduplicates the grid, looks each run up by its
fingerprint in the in-process memo and then on disk, simulates the
misses, and files their results under the same fingerprint in both
layers.  Simulations are deterministic and share no state, so the
misses are embarrassingly parallel.

The resolved worker count picks how the misses execute: one worker
runs them in a plain in-process loop, more fan out over a
:class:`concurrent.futures.ProcessPoolExecutor`.  Both call
``runner.execute_run`` per spec, and every run is single-threaded; the
pool is the only parallelism.  :func:`backend_choice` names the choice
the core count implies — ``process`` on multi-core boxes, ``serial`` on
single-core ones, where a pool has nothing to overlap — together with
a human-readable reason, which the benchmarks record as
``backend_reason``.

Pool tasks are bank-affine: the runs that share a stream bank — the
same (workload, machine, backing) under the grid's settings, whatever
the policy — go to one worker as one task, so each bank is generated
in exactly one process (:func:`_bank_tasks`).  Only when there are
fewer banks than workers are the largest groups split, so that no
worker idles.

Worker count resolution, in priority order: explicit ``jobs``
argument, the ``REPRO_JOBS`` environment variable, then
``os.cpu_count()``, clamped to ``[1, os.cpu_count()]``.
``jobs=1`` — and any platform where a process pool cannot be built
(no ``fork``, sandboxed semaphores) — runs the serial loop with
identical results, since every run is deterministic.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments import runner as _runner
from repro.experiments.cache import ResultCache
from repro.experiments.runner import RunSettings, RunSpec
from repro.options import RuntimeOptions
from repro.sim.results import SimulationResult

_BACKENDS = ("serial", "process")


def backend_choice() -> Tuple[str, str]:
    """The executor the core count implies, plus the reason.

    ``process`` on multi-core machines; ``serial`` on single-core ones,
    where a pool cannot overlap anything.  The reason string is what
    the benchmarks record as ``backend_reason``.
    """
    cpus = os.cpu_count() or 1
    if cpus > 1:
        return "process", f"cpu_count={cpus} -> process"
    return "serial", "cpu_count=1 -> serial (a pool has nothing to overlap)"


def resolve_jobs(jobs: Optional[int] = None, backend: Optional[str] = None) -> int:
    """Worker count: explicit ``jobs`` > ``REPRO_JOBS`` > cpu_count.

    Clamped to ``[1, os.cpu_count()]``: workers are CPU-bound, so
    oversubscribing cores only adds scheduler churn (and benchmark
    numbers taken that way report meaningless "parallel" speedups).
    The default uses every core: the parent process mostly waits on
    futures, so it needs no core of its own, and a one-core box stays
    serial.  ``backend="serial"`` always resolves to 1.
    """
    if backend is not None and backend not in _BACKENDS:
        raise ValueError(
            f"unknown jobs backend {backend!r}; expected one of {_BACKENDS}"
        )
    if backend == "serial":
        return 1
    if jobs is None:
        jobs = RuntimeOptions.from_env().jobs
    cpus = os.cpu_count() or 1
    if jobs is None:
        jobs = cpus
    return max(1, min(int(jobs), cpus))


def _execute_specs(
    specs: List[RunSpec], settings: RunSettings
) -> List[Tuple[RunSpec, SimulationResult]]:
    """Run specs in order, uncached: the serial loop, or one pool task."""
    return [(spec, _runner.execute_run(spec, settings)) for spec in specs]


def _bank_tasks(misses: Sequence[RunSpec], workers: int) -> List[List[RunSpec]]:
    """Split a grid's misses into bank-affine pool tasks.

    One task per stream-bank group: the specs sharing (workload,
    canonical machine, backing_1g), in grid order.  Streams do not
    depend on the policy, so a task generates its bank once and every
    later run in it reads the rows back.  While there are fewer tasks
    than ``workers``, the largest task (the first, on ties) is halved,
    so every worker gets work as long as there are runs to go round.
    """
    groups: Dict[Tuple[str, str, bool], List[RunSpec]] = {}
    for spec in misses:
        key = (
            spec.workload,
            _runner.canonical_machine(spec.machine),
            spec.backing_1g,
        )
        groups.setdefault(key, []).append(spec)
    tasks = list(groups.values())
    while len(tasks) < workers:
        largest = max(range(len(tasks)), key=lambda i: len(tasks[i]))
        task = tasks[largest]
        if len(task) < 2:
            break
        half = (len(task) + 1) // 2
        tasks[largest:largest + 1] = [task[:half], task[half:]]
    return tasks


class GridRunner:
    """The one executor: runs a grid through both cache layers and the pool.

    Usage::

        grid = [RunSpec("CG.D", "B", "thp"), RunSpec("CG.D", "B", "linux-4k")]
        results = GridRunner(settings).run(grid)   # {RunSpec: SimulationResult}

    Every artifact hands its whole grid to one :meth:`run` call and
    renders its report from the returned dict, so a read the grid did
    not declare is a ``KeyError``.
    """

    def __init__(
        self,
        settings: Optional[RunSettings] = None,
        jobs: Optional[int] = None,
    ) -> None:
        self.settings = settings or RunSettings()
        self.jobs = jobs

    def _run_pool(
        self, misses: List[RunSpec], jobs: int
    ) -> List[Tuple[RunSpec, SimulationResult]]:
        import concurrent.futures
        import multiprocessing

        # fork skips re-importing numpy/repro in every worker; the
        # default method elsewhere (spawn) works too, just slower.
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = multiprocessing.get_context()
        tasks = _bank_tasks(misses, jobs)
        results: List[Tuple[RunSpec, SimulationResult]] = []
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks)), mp_context=ctx
        ) as pool:
            futures = [
                pool.submit(_execute_specs, task, self.settings)
                for task in tasks
            ]
            for future in concurrent.futures.as_completed(futures):
                results.extend(future.result())
        return results

    def _execute(
        self, misses: List[RunSpec]
    ) -> List[Tuple[RunSpec, SimulationResult]]:
        """Simulate the misses: a plain loop at one job, else the pool."""
        jobs = resolve_jobs(self.jobs)
        if jobs > 1 and len(misses) > 1:
            try:
                return self._run_pool(misses, jobs)
            except (OSError, ImportError, PermissionError, RuntimeError):
                pass  # No usable multiprocessing on this platform.
        return _execute_specs(misses, self.settings)

    def run(
        self, specs: Iterable[RunSpec], use_cache: bool = True
    ) -> Dict[RunSpec, SimulationResult]:
        """Execute a grid; returns ``{spec: result}`` in first-seen order.

        Duplicate specs, and specs that share a fingerprint, run once.
        With ``use_cache`` each run is looked up in the in-process memo,
        then (unless ``REPRO_CACHE`` is off) on disk; only the misses
        are simulated, and their results land in both layers.
        ``use_cache=False`` simulates every run and touches neither.
        """
        keys = self.settings.fingerprints(specs)
        store = (
            ResultCache.default()
            if use_cache and RuntimeOptions.from_env().cache
            else None
        )
        found: Dict[str, SimulationResult] = {}
        misses: Dict[str, RunSpec] = {}
        for spec, key in keys.items():
            if key in found or key in misses:
                continue
            result = _runner._CACHE.get(key) if use_cache else None
            if result is None and store is not None:
                result = store.get(key)
                if result is not None:
                    _runner._CACHE[key] = result
            if result is None:
                misses[key] = spec
            else:
                found[key] = result
        if misses:
            for spec, result in self._execute(list(misses.values())):
                key = keys[spec]
                found[key] = result
                if use_cache:
                    _runner._CACHE[key] = result
                    if store is not None:
                        store.put(key, result)
        return {spec: found[key] for spec, key in keys.items()}
