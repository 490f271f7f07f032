"""The unit of work: one (benchmark, machine, policy) run and its identity.

A :class:`RunSpec` names a run and :class:`RunSettings` the knobs its
batch shares.  Together they fix the run's fingerprint
(:meth:`RunSettings.fingerprint`), the one key under which both cache
layers file its result:

* an in-process memo (identity-preserving, so tests can assert
  ``a is b``);
* the persistent on-disk store in :mod:`repro.experiments.cache`,
  shared across processes and sessions.

:func:`execute_run` simulates one spec with no caching at all; the
executor in :mod:`repro.experiments.parallel` is the only caller that
consults the caches, and :func:`run_benchmark` is its one-spec call.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, Dict, Iterable, Optional, Tuple

from repro.experiments.cache import (
    encoded_run_fingerprint,
    key_form,
    run_fingerprint,
)
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


@dataclass(frozen=True)
class RunSettings:
    """Knobs shared by all runs of one experiment batch."""

    config: SimConfig = field(default_factory=SimConfig)
    seed: int = 0

    @classmethod
    def quick(cls, seed: int = 0) -> "RunSettings":
        """Reduced-cost settings for tests/benchmarks."""
        return cls(config=SimConfig.quick(seed=seed), seed=seed)

    def fingerprint(self, spec: RunSpec) -> str:
        """The run's identity: its memo key and its persistent-cache key.

        The complete config is hashed, less the result-neutral fields it
        names in ``_CACHE_KEY_EXCLUDE``, plus a package version stamp.
        """
        return run_fingerprint(
            spec.workload,
            canonical_machine(spec.machine),
            spec.policy,
            spec.backing_1g,
            self.config,
            self.seed,
            params=spec.params,
        )

    def fingerprints(self, specs: Iterable[RunSpec]) -> Dict[RunSpec, str]:
        """:meth:`fingerprint` of every spec of a grid, in grid order.

        The config is encoded once for the whole grid: it is most of
        what a key costs.
        """
        config = key_form(self.config)
        return {
            spec: encoded_run_fingerprint(
                spec.workload,
                canonical_machine(spec.machine),
                spec.policy,
                spec.backing_1g,
                config,
                self.seed,
                params=spec.params,
            )
            for spec in specs
        }


#: The in-process memo, keyed by :meth:`RunSettings.fingerprint`.
_CACHE: Dict[str, SimulationResult] = {}


def clear_cache() -> None:
    """Drop all in-process memoised run results."""
    _CACHE.clear()


@functools.lru_cache(maxsize=None)
def canonical_machine(machine: str) -> str:
    """The topology name cache keys are filed under (``A`` -> ``machine-A``).

    Memoized per name: building the topology costs more than the rest
    of a key.
    """
    return machine_by_name(machine).name


def build_simulation(
    spec: RunSpec, settings: RunSettings, **config_overrides: Any
) -> Simulation:
    """The simulation of one run, ready to ``run()``.

    ``config_overrides`` replace fields of the settings' config, e.g.
    ``profile=True`` or ``trace=True``.  The simulation stack is
    imported here, at the first simulation, so a run served from the
    cache never loads it.
    """
    from repro.experiments.configs import make_policy
    from repro.sim.engine import Simulation
    from repro.workloads.registry import get_workload

    config = settings.config
    if config_overrides:
        config = replace(config, **config_overrides)
    topo = machine_by_name(spec.machine)
    instance = get_workload(spec.workload).instantiate(
        topo, config.scale, settings.seed
    )
    if spec.backing_1g:
        instance = instance.with_1g_backing()
    policy = make_policy(spec.policy, seed=settings.seed, params=spec.params)
    return Simulation(topo, instance, policy, config=config)


def execute_run(spec: RunSpec, settings: RunSettings) -> SimulationResult:
    """Run one simulation with no caching at either level.

    This is the raw unit of work, serial or in a pool worker; everything
    it touches (spec and settings in, result out) is picklable.
    """
    return build_simulation(spec, settings).run()


def run_benchmark(
    workload: str,
    machine: str = "A",
    policy: str = "thp",
    settings: Optional[RunSettings] = None,
    backing_1g: bool = False,
    use_cache: bool = True,
) -> SimulationResult:
    """Run one benchmark under one policy on one machine.

    ``backing_1g`` backs the workload with 1GB hugetlbfs-style pages
    (Section 4.4); it composes with any policy.  This is a one-spec
    grid: see :meth:`repro.experiments.parallel.GridRunner.run` for
    what ``use_cache`` does.
    """
    from repro.experiments.parallel import GridRunner  # imports this module

    spec = RunSpec(workload, machine, policy, backing_1g)
    return GridRunner(settings).run([spec], use_cache=use_cache)[spec]
