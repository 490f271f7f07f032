"""Parallel fan-out of independent simulation runs.

Simulations are deterministic and share no state, so a batch of
(workload, machine, policy, backing) combinations is embarrassingly
parallel.  :class:`GridRunner` collects the full grid for an
experiment batch, deduplicates it (figures share their Linux/THP
baselines), answers what it can from the two cache layers, and fans
the misses out over a :class:`concurrent.futures.ProcessPoolExecutor`.
Every run is single-threaded; the pool is the only parallelism.

Pool tasks are bank-affine: the runs that share a stream bank — the
same (workload, machine, backing) under the grid's settings, whatever
the policy — go to one worker as one task, so each bank is generated
in exactly one process (:func:`_bank_tasks`).  Only when there are
fewer banks than workers are the largest groups split, so that no
worker idles.

The resolved worker count picks the executor: more than one worker
fans out over the pool, one worker runs the misses in a plain
in-process loop.  :func:`backend_choice` names the choice the core
count implies — ``process`` on multi-core boxes, ``serial`` on
single-core ones, where a pool has nothing to overlap — together with
a human-readable reason, which the benchmarks record as
``backend_reason``.

Worker count resolution, in priority order: explicit ``jobs``
argument, the ``REPRO_JOBS`` environment variable, then
``os.cpu_count()``, clamped to ``[1, os.cpu_count()]``.
``jobs=1`` — and any platform where a process pool cannot be built
(no ``fork``, sandboxed semaphores) — degrades to the serial loop with
identical results, since every run is deterministic.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.experiments import runner as _runner
from repro.experiments.cache import ResultCache
from repro.experiments.runner import RunSettings
from repro.options import RuntimeOptions
from repro.sim.results import SimulationResult

_BACKENDS = ("serial", "process")


@dataclass(frozen=True)
class RunSpec:
    """One deduplicable unit of work: a single simulation run."""

    workload: str
    machine: str = "A"
    policy: str = "thp"
    backing_1g: bool = False

    def describe(self) -> str:
        """Short label for logs and progress lines."""
        suffix = "+1g" if self.backing_1g else ""
        return f"{self.workload}@{self.machine}/{self.policy}{suffix}"


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
    """Run specs in order, uncached; the pool workers' entry point."""
    return [
        (
            spec,
            _runner.execute_run(
                spec.workload, spec.machine, spec.policy, settings,
                spec.backing_1g,
            ),
        )
        for spec in specs
    ]


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
    """Collects a run grid, then executes it cache-aware and in parallel.

    Usage::

        grid = GridRunner(settings)
        grid.add("CG.D", "B", "thp")
        grid.add_grid(["CG.D", "UA.B"], ["A", "B"], ["linux-4k", "thp"])
        results = grid.run(jobs=4)   # {RunSpec: SimulationResult}

    ``run`` leaves every result installed in the runner's in-process
    memo (and the persistent store), so subsequent
    :func:`repro.experiments.runner.run_benchmark` calls for the same
    settings are hits.
    """

    def __init__(
        self,
        settings: Optional[RunSettings] = None,
        jobs: Optional[int] = None,
    ) -> None:
        self.settings = settings or RunSettings()
        self.jobs = jobs
        self._specs: List[RunSpec] = []
        self._seen: set = set()

    # ------------------------------------------------------------------
    # Grid assembly
    # ------------------------------------------------------------------
    def add(
        self,
        workload: str,
        machine: str = "A",
        policy: str = "thp",
        backing_1g: bool = False,
    ) -> "GridRunner":
        """Queue one run; duplicates are dropped (shared baselines)."""
        spec = RunSpec(workload, machine, policy, backing_1g)
        if spec not in self._seen:
            self._seen.add(spec)
            self._specs.append(spec)
        return self

    def add_spec(self, spec: RunSpec) -> "GridRunner":
        """Queue one pre-built :class:`RunSpec`."""
        return self.add(spec.workload, spec.machine, spec.policy, spec.backing_1g)

    def add_grid(
        self,
        workloads: Sequence[str],
        machines: Sequence[str],
        policies: Sequence[str],
        backing_1g: bool = False,
    ) -> "GridRunner":
        """Queue the cross product workloads x machines x policies."""
        for wl in workloads:
            for machine in machines:
                for policy in policies:
                    self.add(wl, machine, policy, backing_1g)
        return self

    @property
    def specs(self) -> List[RunSpec]:
        """The deduplicated grid, in insertion order."""
        return list(self._specs)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _partition(
        self, persistent: bool
    ) -> Tuple[Dict[RunSpec, SimulationResult], List[RunSpec]]:
        """Split the grid into (cache hits, misses to execute)."""
        hits: Dict[RunSpec, SimulationResult] = {}
        misses: List[RunSpec] = []
        settings = self.settings
        store = ResultCache.default() if persistent else None
        for spec in self._specs:
            machine = _runner.canonical_machine(spec.machine)
            key = settings.cache_key(
                spec.workload, machine, spec.policy, spec.backing_1g
            )
            memoised = _runner._CACHE.get(key)
            if memoised is not None:
                hits[spec] = memoised
                continue
            if store is not None:
                cached = store.get(
                    settings.fingerprint(
                        spec.workload, machine, spec.policy, spec.backing_1g
                    )
                )
                if cached is not None:
                    hits[spec] = cached
                    _runner.store_result(
                        spec.workload,
                        machine,
                        spec.policy,
                        settings,
                        spec.backing_1g,
                        cached,
                        persist=False,
                    )
                    continue
            misses.append(spec)
        return hits, misses

    def _run_serial(self, misses: List[RunSpec]) -> Dict[RunSpec, SimulationResult]:
        return dict(_execute_specs(misses, self.settings))

    def _run_pool(
        self, misses: List[RunSpec], jobs: int
    ) -> Dict[RunSpec, SimulationResult]:
        import concurrent.futures
        import multiprocessing

        # fork skips re-importing numpy/repro in every worker; the
        # default method elsewhere (spawn) works too, just slower.
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = multiprocessing.get_context()
        tasks = _bank_tasks(misses, jobs)
        results: Dict[RunSpec, SimulationResult] = {}
        with concurrent.futures.ProcessPoolExecutor(
            max_workers=min(jobs, len(tasks)), mp_context=ctx
        ) as pool:
            futures = [
                pool.submit(_execute_specs, task, self.settings)
                for task in tasks
            ]
            for future in concurrent.futures.as_completed(futures):
                results.update(future.result())
        return results

    def run(
        self,
        jobs: Optional[int] = None,
        use_cache: bool = True,
    ) -> Dict[RunSpec, SimulationResult]:
        """Execute the grid; returns ``{spec: result}`` in grid order.

        Cached specs are answered without work.  Fresh results are
        installed into both cache layers so later ``run_benchmark``
        calls (the experiment drivers' inner loops) are pure hits.
        """
        options = RuntimeOptions.from_env()
        if use_cache:
            hits, misses = self._partition(options.cache)
        else:
            hits, misses = {}, list(self._specs)
        n_jobs = resolve_jobs(self.jobs if jobs is None else jobs)
        if misses:
            if n_jobs <= 1 or len(misses) <= 1:
                fresh = self._run_serial(misses)
            else:
                try:
                    fresh = self._run_pool(misses, n_jobs)
                except (OSError, ImportError, PermissionError, RuntimeError):
                    # No usable multiprocessing on this platform.
                    fresh = self._run_serial(misses)
            for spec, result in fresh.items():
                if use_cache:
                    _runner.store_result(
                        spec.workload,
                        _runner.canonical_machine(spec.machine),
                        spec.policy,
                        self.settings,
                        spec.backing_1g,
                        result,
                        persist=options.cache,
                    )
                hits[spec] = result
        return {spec: hits[spec] for spec in self._specs}


def prefetch(
    specs: Iterable[RunSpec],
    settings: Optional[RunSettings] = None,
    jobs: Optional[int] = None,
) -> Dict[RunSpec, SimulationResult]:
    """Warm both cache layers for a batch of runs, in parallel.

    The experiment drivers call this with their full grid before their
    (serial, report-building) inner loops; with ``jobs`` resolving to 1
    it is a no-op and the driver's own ``run_benchmark`` calls do the
    work exactly as before.
    """
    grid = GridRunner(settings, jobs=jobs)
    for spec in specs:
        grid.add_spec(spec)
    if not grid.specs or resolve_jobs(jobs) <= 1:
        return {}
    return grid.run()
