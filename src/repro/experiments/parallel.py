"""The one executor: every artifact's run grid goes through :class:`GridRunner`.

:func:`repro.experiments.experiments.run_experiments` hands the union
of the artifacts' :class:`~repro.experiments.runner.RunSpec` grids to
one :meth:`GridRunner.run` call, which returns ``{spec: result}``;
:func:`repro.experiments.runner.run_benchmark` is the same call with a
one-spec grid.  ``run`` deduplicates the grid by fingerprint, reads each
run from the persistent store, simulates the misses, and files each
result under its fingerprint as it finishes.  Simulations are
deterministic and share no state, so the misses are embarrassingly parallel.

The resolved worker count picks how the misses execute: one worker
runs them in a plain in-process loop, more fan out over a
:class:`concurrent.futures.ProcessPoolExecutor`.  Both call
``runner.execute_run`` per spec, and every run is single-threaded; the
pool is the only parallelism.  :func:`backend_choice` names the choice
the core count implies — ``process`` on multi-core boxes, ``serial`` on
single-core ones, where a pool has nothing to overlap — together with
a human-readable reason, which the benchmarks record as
``backend_reason``.

Both run bank-affine tasks: the runs that share a stream bank — the
same (workload, machine, backing) under the grid's config, whatever
the policy — form one task (:func:`_bank_tasks`), which the pool hands
to one worker and the serial loop runs back to back, the largest tasks
first.  So each bank is generated in exactly one process, and a
process needs to keep only its most recent bank
(:func:`repro.workloads.streambank.get_stream_bank`).
Only when there are fewer banks than workers are the largest groups
split, so that no worker idles.

Worker count resolution, in priority order: explicit ``jobs``
argument, the ``REPRO_JOBS`` environment variable, then
``os.cpu_count()``, clamped to ``[1, os.cpu_count()]``.
``jobs=1`` — and any platform where a process pool cannot be built
(no ``fork``, sandboxed semaphores) — runs the serial loop with
identical results, since every run is deterministic; so do the runs a
broken pool did not return.  A run's own exception propagates as is.
"""

from __future__ import annotations

import contextlib
import os
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.experiments import runner as _runner
from repro.experiments.cache import ResultCache, cache_enabled
from repro.experiments.runner import RunSpec
from repro.hardware.machines import machine_by_name
from repro.options import RuntimeOptions
from repro.sim.config import SimConfig
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
    specs: List[RunSpec], config: SimConfig
) -> List[Tuple[RunSpec, SimulationResult]]:
    """Run specs in order, uncached: one pool task."""
    return [(spec, _runner.execute_run(spec, config)) for spec in specs]


def _bank_tasks(misses: Sequence[RunSpec], workers: int) -> List[List[RunSpec]]:
    """Split a grid's misses into bank-affine tasks, largest first.

    One task per stream-bank group: the specs sharing (workload,
    canonical machine, backing_1g), in grid order.  Streams do not
    depend on the policy, so a task generates its bank once and every
    later run in it reads the rows back.  While there are fewer tasks
    than ``workers``, the largest task (the first, on ties) is halved,
    so every worker gets work as long as there are runs to go round.

    The tasks are then sorted, stably, by their runs times their
    machine's cores (a run draws and folds one stream per core), most
    first: the pool hands out the long tasks while every worker is
    still busy, and equal tasks keep grid order.
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
    while 0 < len(tasks) < workers:
        largest = max(range(len(tasks)), key=lambda i: len(tasks[i]))
        task = tasks[largest]
        if len(task) < 2:
            break
        half = (len(task) + 1) // 2
        tasks[largest:largest + 1] = [task[:half], task[half:]]
    tasks.sort(
        key=lambda task: len(task) * machine_by_name(task[0].machine).n_cores,
        reverse=True,
    )
    return tasks


class GridRunner:
    """The one executor: runs a grid through the result cache and the pool.

    Usage::

        grid = [RunSpec("CG.D", "B", "thp"), RunSpec("CG.D", "B", "linux-4k")]
        results = GridRunner(SimConfig.quick()).run(grid)  # {RunSpec: result}
    """

    def __init__(
        self,
        config: Optional[SimConfig] = None,
        jobs: Optional[int] = None,
    ) -> None:
        self.config = config or SimConfig()
        self.jobs = jobs

    def _run_pool(
        self, misses: List[RunSpec], jobs: int
    ) -> Iterator[Tuple[RunSpec, SimulationResult]]:
        """Yield each bank task's results as its worker returns them;
        a pool that cannot be built, or that breaks, stops early."""
        import concurrent.futures
        import multiprocessing
        from concurrent.futures.process import BrokenProcessPool

        # fork skips re-importing numpy/repro in every worker; the
        # default method elsewhere (spawn) works too, just slower.
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            ctx = multiprocessing.get_context()
        tasks = _bank_tasks(misses, jobs)
        with contextlib.ExitStack() as stack:
            try:
                pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=min(jobs, len(tasks)), mp_context=ctx
                )
                stack.enter_context(pool)
                futures = [pool.submit(_execute_specs, t, self.config) for t in tasks]
            except (OSError, ImportError, RuntimeError):
                return  # No usable multiprocessing on this platform.
            try:
                for future in concurrent.futures.as_completed(futures):
                    yield from future.result()
            except BrokenProcessPool:
                return

    def _execute(
        self, misses: List[RunSpec]
    ) -> Iterator[Tuple[RunSpec, SimulationResult]]:
        """Yield each miss's result as it finishes: from the pool at more
        than one job, then from a plain loop over what it did not return."""
        jobs = resolve_jobs(self.jobs)
        rest = dict.fromkeys(misses)
        if jobs > 1 and len(misses) > 1:
            for spec, result in self._run_pool(misses, jobs):
                del rest[spec]
                yield spec, result
        for task in _bank_tasks(list(rest), 1):
            for spec in task:
                yield spec, _runner.execute_run(spec, self.config)

    def run(self, specs: Iterable[RunSpec]) -> Dict[RunSpec, SimulationResult]:
        """Execute a grid; returns ``{spec: result}`` in first-seen order.

        Duplicate specs, and specs that share a fingerprint, run once.
        Unless ``REPRO_CACHE`` is off, each run is read from the
        persistent store, only the misses are simulated, and each
        result is stored as it arrives (per run from the serial loop,
        per bank task from the pool); with it off, every run is
        simulated and nothing is stored.
        """
        keys = _runner.fingerprints(specs, self.config)
        store = ResultCache.default() if cache_enabled() else None
        found: Dict[str, SimulationResult] = {}
        misses: Dict[str, RunSpec] = {}
        for spec, key in keys.items():
            if key in found or key in misses:
                continue
            result = store.get(key) if store is not None else None
            if result is None:
                misses[key] = spec
            else:
                found[key] = result
        for spec, result in self._execute(list(misses.values())):
            key = keys[spec]
            found[key] = result
            if store is not None:
                store.put(key, result)
        return {spec: found[key] for spec, key in keys.items()}
