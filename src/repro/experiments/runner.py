"""Run (benchmark, machine, policy) combinations and cache the results.

Many experiments share runs — Figures 1-5 all reference the same
Linux and THP baselines — so results are cached at two levels:

* an in-process memo (identity-preserving, so tests can assert
  ``a is b``), keyed by the *complete* run identity;
* the persistent on-disk store in
  :mod:`repro.experiments.cache`, shared across processes and
  sessions and keyed by a full-config fingerprint.

Batch drivers fan independent runs out over worker processes via
:mod:`repro.experiments.parallel`; both layers make that transparent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from repro.experiments.cache import (
    ResultCache,
    normalized_config,
    run_fingerprint,
)
from repro.hardware.machines import machine_by_name
from repro.hardware.topology import NumaTopology
from repro.options import RuntimeOptions
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation
from repro.sim.results import SimulationResult
from repro.experiments.configs import make_policy
from repro.workloads.registry import get_workload


@dataclass(frozen=True)
class RunSettings:
    """Knobs shared by all runs of one experiment batch."""

    config: SimConfig = field(default_factory=SimConfig)
    seed: int = 0

    @classmethod
    def quick(cls, seed: int = 0) -> "RunSettings":
        """Reduced-cost settings for tests/benchmarks."""
        return cls(config=SimConfig.quick(seed=seed), seed=seed)

    def cache_key(
        self, workload: str, machine: str, policy: str, backing_1g: bool
    ) -> Tuple:
        """In-process memo key covering the complete run identity.

        The whole (hashable, frozen) :class:`SimConfig` participates, so
        configs differing in *any* field — including ``max_epochs``,
        ``khugepaged_batch``, ``ibs_cost_cycles`` or
        ``track_access_stats``, which an earlier tuple key dropped —
        can never collide.  Result-neutral fields named in the config's
        ``_CACHE_KEY_EXCLUDE`` (``check_invariants``) are normalised
        away so runs with and without checking share one entry.
        """
        return (
            workload,
            machine,
            policy,
            backing_1g,
            self.seed,
            normalized_config(self.config),
        )

    def fingerprint(
        self, workload: str, machine: str, policy: str, backing_1g: bool
    ) -> str:
        """Persistent-cache key (full-config hash + version stamp)."""
        return run_fingerprint(
            workload, machine, policy, backing_1g, self.config, self.seed
        )


_CACHE: Dict[Tuple, SimulationResult] = {}


def clear_cache() -> None:
    """Drop all in-process memoised run results."""
    _CACHE.clear()


def canonical_machine(machine: Union[str, NumaTopology]) -> str:
    """The topology name cache keys are filed under (``A`` -> ``machine-A``)."""
    if isinstance(machine, NumaTopology):
        return machine.name
    return machine_by_name(machine).name


def execute_run(
    workload: str,
    machine: Union[str, NumaTopology],
    policy: str,
    settings: RunSettings,
    backing_1g: bool = False,
) -> SimulationResult:
    """Run one simulation with no caching at either level.

    This is the raw unit of work the parallel pool workers execute;
    everything it touches (settings in, result out) is picklable.
    """
    topo = machine_by_name(machine) if isinstance(machine, str) else machine
    wl = get_workload(workload)
    instance = wl.instantiate(topo, settings.config.scale, settings.seed)
    if backing_1g:
        instance = instance.with_1g_backing()
    sim = Simulation(
        topo,
        instance,
        make_policy(policy, seed=settings.seed),
        config=settings.config,
    )
    return sim.run()


def store_result(
    workload: str,
    machine: str,
    policy: str,
    settings: RunSettings,
    backing_1g: bool,
    result: SimulationResult,
    persist: bool,
) -> None:
    """Install a finished run into the memo (and, with ``persist``, on
    disk)."""
    _CACHE[settings.cache_key(workload, machine, policy, backing_1g)] = result
    if persist:
        ResultCache.default().put(
            settings.fingerprint(workload, machine, policy, backing_1g), result
        )


def run_benchmark(
    workload: str,
    machine: Union[str, NumaTopology] = "A",
    policy: str = "thp",
    settings: Optional[RunSettings] = None,
    backing_1g: bool = False,
    use_cache: bool = True,
) -> SimulationResult:
    """Run one benchmark under one policy on one machine.

    ``backing_1g`` backs the workload with 1GB hugetlbfs-style pages
    (Section 4.4); it composes with any policy.  With ``use_cache``
    (the default) the in-process memo is consulted first, then the
    persistent on-disk cache; ``use_cache=False`` bypasses and
    populates neither.
    """
    options = RuntimeOptions.from_env()
    settings = settings or RunSettings()
    topo = machine_by_name(machine) if isinstance(machine, str) else machine
    if not use_cache:
        return execute_run(workload, topo, policy, settings, backing_1g)
    key = settings.cache_key(workload, topo.name, policy, backing_1g)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached
    result = None
    if options.cache:
        result = ResultCache.default().get(
            settings.fingerprint(workload, topo.name, policy, backing_1g)
        )
    hit = result is not None
    if result is None:
        result = execute_run(workload, topo, policy, settings, backing_1g)
    store_result(
        workload, topo.name, policy, settings, backing_1g, result,
        persist=options.cache and not hit,
    )
    return result


def improvement(
    workload: str,
    machine: Union[str, NumaTopology],
    policy: str,
    baseline: str = "linux-4k",
    settings: Optional[RunSettings] = None,
    backing_1g: bool = False,
    baseline_backing_1g: bool = False,
) -> float:
    """Percent performance improvement of ``policy`` over ``baseline``.

    Matches the paper's figures: positive means the policy runs faster
    than the baseline on the same workload and machine.
    """
    result = run_benchmark(
        workload, machine, policy, settings, backing_1g=backing_1g
    )
    base = run_benchmark(
        workload, machine, baseline, settings, backing_1g=baseline_backing_1g
    )
    return result.improvement_over(base)
