"""The unit of work: one (benchmark, machine, policy) run and its identity.

A :class:`RunSpec` names a run and a :class:`~repro.sim.config.SimConfig`
fixes everything it computes from, its seed included.  Together they
fix the run's fingerprint (:func:`fingerprints`), the key under which
the persistent store in :mod:`repro.experiments.cache` files its
result, shared across processes and sessions.

:func:`execute_run` simulates one spec with no caching at all; the
executor in :mod:`repro.experiments.parallel` is the only caller that
consults the store, and :func:`run_benchmark` is its one-spec call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Iterable, Optional, Tuple

from repro.experiments.cache import fingerprint
from repro.hardware.machines import machine_by_name
from repro.sim.config import SimConfig
from repro.sim.results import SimulationResult

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation


@dataclass(frozen=True)
class RunSpec:
    """One deduplicable unit of work: a single simulation run.

    ``params`` are keyword overrides for the policy's constructor (see
    :func:`repro.experiments.configs.make_policy`), as ``(name, value)``
    pairs with hashable values.
    """

    workload: str
    machine: str = "A"
    policy: str = "thp"
    backing_1g: bool = False
    params: Tuple[Tuple[str, Any], ...] = ()

    def describe(self) -> str:
        """Short label for logs and progress lines."""
        suffix = "+1g" if self.backing_1g else ""
        return f"{self.workload}@{self.machine}/{self.policy}{suffix}"


def run_fingerprint(spec: RunSpec, config: SimConfig) -> str:
    """The cache key of ``spec`` run under ``config``.

    Every spec field (the machine by its canonical name, so aliases
    share a key) and the complete config, seed included, are hashed,
    plus a package version stamp.
    """
    return fingerprint(
        workload=spec.workload,
        machine=canonical_machine(spec.machine),
        policy=spec.policy,
        backing_1g=bool(spec.backing_1g),
        params=spec.params,
        config=config,
    )


def fingerprints(
    specs: Iterable[RunSpec], config: SimConfig
) -> Dict[RunSpec, str]:
    """Each spec's :func:`run_fingerprint` under ``config``, in grid order."""
    return {spec: run_fingerprint(spec, config) for spec in specs}


@functools.lru_cache(maxsize=None)
def canonical_machine(machine: str) -> str:
    """The topology name cache keys are filed under (``A`` -> ``machine-A``).

    Memoized per name: building the topology costs more than the rest
    of a key.
    """
    return machine_by_name(machine).name


def build_simulation(spec: RunSpec, config: SimConfig) -> Simulation:
    """The simulation of one run, ready to ``run()``.

    The workload and the policy are seeded with ``config.seed``.  The
    simulation stack is imported here, at the first simulation, so a
    run served from the cache never loads it.
    """
    from repro.experiments.configs import make_policy
    from repro.sim.engine import Simulation
    from repro.workloads.registry import get_workload

    topo = machine_by_name(spec.machine)
    instance = get_workload(spec.workload).instantiate(
        topo, config.scale, config.seed
    )
    if spec.backing_1g:
        instance = instance.with_1g_backing()
    policy = make_policy(spec.policy, seed=config.seed, params=spec.params)
    return Simulation(topo, instance, policy, config=config)


def execute_run(spec: RunSpec, config: SimConfig) -> SimulationResult:
    """Run one simulation with no caching.

    This is the raw unit of work, serial or in a pool worker; everything
    it touches (spec and config in, result out) is picklable.
    """
    return build_simulation(spec, config).run()


def run_benchmark(
    workload: str,
    machine: str = "A",
    policy: str = "thp",
    config: Optional[SimConfig] = None,
    backing_1g: bool = False,
) -> SimulationResult:
    """Run one benchmark under one policy on one machine.

    ``backing_1g`` backs the workload with 1GB hugetlbfs-style pages
    (Section 4.4); it composes with any policy.  This is a one-spec
    grid: see :meth:`repro.experiments.parallel.GridRunner.run`.
    """
    from repro.experiments.parallel import GridRunner  # imports this module

    spec = RunSpec(workload, machine, policy, backing_1g)
    return GridRunner(config).run([spec])[spec]
