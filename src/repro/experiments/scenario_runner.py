"""Drive multi-tenant colocation scenarios against one shared host.

The scenario runner is to :class:`~repro.sim.host.Host` what
:mod:`repro.experiments.runner` is to a single
:class:`~repro.sim.engine.Simulation`: it turns a declarative
:class:`~repro.scenarios.config.ScenarioConfig` into tenants (spawned
by the configured arrival generator, each with its own derived seed,
workload instance, and policy), multiplexes them on one shared frame
allocator, and packages every tenant's
:class:`~repro.sim.results.SimulationResult` plus the host-level
timeline into a picklable :class:`ScenarioResult` — cached on disk
under a scenario fingerprint exactly like single runs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro._util import stable_seed
from repro.experiments.cache import (
    ResultCache,
    cache_enabled,
    scenario_fingerprint,
)
from repro.hardware.machines import machine_by_name
from repro.scenarios import ScenarioConfig, make_arrival_generator
from repro.sim.config import SimConfig
from repro.sim.results import SimulationResult

#: Static-analysis registry (rule R104): scenario runs are the second
#: root of the simulation call graph, next to ``Simulation.run`` —
#: every random/clock sink reachable from here must be the sanctioned
#: ``rng_for`` site or an explicitly suppressed observability read.
_SIM_ENTRY_POINTS = ("run_scenario",)


@dataclass
class TenantRecord:
    """One tenant's lifecycle within a scenario."""

    tenant_id: int
    workload: str
    policy: str
    #: Host epoch the tenant was admitted at.
    arrival_epoch: int
    #: Host epoch the tenant left at (completion or OOM kill);
    #: ``None`` while running or if the scenario clock ran out first.
    exit_epoch: Optional[int] = None
    #: ``running`` / ``completed`` / ``oom-killed`` / ``truncated``.
    status: str = "running"
    #: Per-tenant simulation result (partial for killed/truncated
    #: tenants: whatever epochs they completed before leaving).
    result: Optional[SimulationResult] = None


@dataclass
class ScenarioResult:
    """Everything one scenario run produced (picklable)."""

    scenario: ScenarioConfig
    machine: str
    #: Host epochs the shared clock advanced.
    host_epochs: int
    #: Bytes pinned up front by the scenario's pressure fraction.
    pressure_bytes: int
    #: Per-tenant records in spawn order.
    tenants: List[TenantRecord] = field(default_factory=list)
    #: Host timeline: ``(host_epoch, event, tenant_id)`` with event in
    #: ``spawn`` / ``exit`` / ``oom-kill``.
    events: List[Tuple[int, str, int]] = field(default_factory=list)

    def by_status(self, status: str) -> List[TenantRecord]:
        """Tenant records in a given lifecycle state."""
        return [t for t in self.tenants if t.status == status]

    @property
    def n_completed(self) -> int:
        """Tenants that ran their workload to completion."""
        return len(self.by_status("completed"))

    @property
    def n_killed(self) -> int:
        """Tenants OOM-killed by shared-allocator exhaustion."""
        return len(self.by_status("oom-killed"))

    def mean_runtime_s(self, workload: Optional[str] = None) -> float:
        """Mean completed-tenant runtime, optionally per workload."""
        times = [
            t.result.runtime_s
            for t in self.by_status("completed")
            if t.result is not None
            and (workload is None or t.workload == workload)
        ]
        if not times:
            raise ValueError("no completed tenants match")
        return sum(times) / len(times)


def tenant_seed(scenario: ScenarioConfig, tenant_id: int) -> int:
    """The derived root seed for one tenant.

    Stable-hashed from the scenario seed and the spawn index, so every
    tenant gets an independent workload instantiation and stream bank
    while the whole scenario stays a pure function of its config.
    """
    return stable_seed(scenario.seed, "tenant", tenant_id) % (2**31)


def execute_scenario(
    scenario: ScenarioConfig,
    config: Optional[SimConfig] = None,
) -> ScenarioResult:
    """Run one scenario with no caching (the raw unit of work).

    ``config`` is the base :class:`SimConfig` every tenant's per-tenant
    config derives from (seed and epoch cap are overridden per tenant).
    The simulation stack is imported here, so a scenario served from
    the cache never loads it.
    """
    from repro.experiments.configs import make_policy
    from repro.sim.engine import Tenant
    from repro.sim.host import Host
    from repro.workloads.registry import get_workload

    topo = machine_by_name(scenario.machine)
    base = config or SimConfig()
    host = Host(topo, config=base)
    pressure_bytes = (
        host.apply_pressure(scenario.pressure) if scenario.pressure else 0
    )
    gen = make_arrival_generator(scenario)
    records: Dict[int, TenantRecord] = {}
    events: List[Tuple[int, str, int]] = []
    next_id = 0

    while host.epoch < scenario.max_host_epochs and (
        host.active or not gen.exhausted()
    ):
        for workload_name, policy_name in gen.arrivals(
            host.epoch, len(host.active)
        ):
            seed = tenant_seed(scenario, next_id)
            tcfg = dataclasses.replace(base, seed=seed)
            if scenario.tenant_epochs is not None:
                tcfg = dataclasses.replace(
                    tcfg,
                    max_epochs=min(tcfg.max_epochs, scenario.tenant_epochs),
                )
            instance = get_workload(workload_name).instantiate(
                topo, tcfg.scale, seed
            )
            tenant = Tenant(
                topo,
                instance,
                make_policy(policy_name, seed=seed),
                config=tcfg,
                phys=host.phys,
                tenant_id=next_id,
            )
            host.admit(tenant)
            records[next_id] = TenantRecord(
                tenant_id=next_id,
                workload=workload_name,
                policy=policy_name,
                arrival_epoch=host.epoch,
            )
            events.append((host.epoch, "spawn", next_id))
            next_id += 1

        finished, killed = host.step_epoch()
        for tenant in finished:
            record = records[tenant.tenant_id]
            record.result = tenant.result()
            record.exit_epoch = host.epoch
            record.status = "completed"
            host.release(tenant)
            events.append((host.epoch, "exit", tenant.tenant_id))
        for tenant in killed:
            record = records[tenant.tenant_id]
            record.result = tenant.result()
            record.exit_epoch = host.epoch
            record.status = "oom-killed"
            events.append((host.epoch, "oom-kill", tenant.tenant_id))

    # The clock ran out with tenants still running: record what they
    # managed, release their pages, and mark them truncated so results
    # cannot be mistaken for completed runs.
    for tenant in list(host.active):
        record = records[tenant.tenant_id]
        record.result = tenant.result()
        record.status = "truncated"
        host.evict(tenant)

    return ScenarioResult(
        scenario=scenario,
        machine=topo.name,
        host_epochs=host.epoch,
        pressure_bytes=pressure_bytes,
        tenants=[records[i] for i in sorted(records)],
        events=events,
    )


def run_scenario(
    scenario: ScenarioConfig,
    config: Optional[SimConfig] = None,
    use_cache: bool = True,
) -> ScenarioResult:
    """Run a scenario, consulting the persistent result cache first.

    Scenarios are deterministic functions of (scenario config, base
    sim config, package version), so they cache exactly like single
    runs; ``use_cache=False`` bypasses and populates nothing.
    """
    base = config or SimConfig()
    if not use_cache or not cache_enabled():
        return execute_scenario(scenario, base)
    key = scenario_fingerprint(scenario, base)
    store = ResultCache.default()
    cached = store.get(key, expect=ScenarioResult)
    if cached is not None:
        return cached
    result = execute_scenario(scenario, base)
    store.put(key, result)
    return result
