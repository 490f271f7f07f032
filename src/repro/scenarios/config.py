"""Scenario configuration: what a colocated host runs, and when."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.errors import ConfigurationError

#: Largest accepted ``arrival_rate``.  A scenario spawns at most
#: ``max_tenants`` tenants, so a higher rate changes nothing a run can
#: show, and numpy's Poisson draw rejects rates above about 9.2e18.
MAX_ARRIVAL_RATE = 1e6


@dataclass(frozen=True)
class ScenarioConfig:
    """One multi-tenant colocation scenario.

    A scenario is a machine plus an arrival process: tenants (one
    workload under one policy each) spawn over host epochs, run to
    completion against the shared frame allocator, exit, and free
    their pages — so later arrivals see the fragmentation earlier ones
    left behind.  Everything here participates in the scenario cache
    fingerprint (:func:`repro.experiments.cache.scenario_fingerprint`),
    so two configs that could diverge never share a cached result.

    Attributes
    ----------
    arrival:
        Name of the arrival generator in the
        :mod:`repro.scenarios.registry` (``poisson`` / ``fixed-trace``
        / ``closed-loop``).
    machine:
        Machine name (``A`` / ``B``, per :mod:`repro.hardware.machines`).
    workloads / policies:
        The pools new tenants draw from, assigned round-robin by
        spawn order (except ``fixed-trace``, which names each tenant's
        pair explicitly).
    arrival_rate:
        Expected arrivals per host epoch (``poisson`` only), finite and
        in ``[0, MAX_ARRIVAL_RATE]``.
    max_tenants:
        Total tenants a scenario may ever spawn (all generators).
    target_active:
        Tenant count the ``closed-loop`` generator keeps alive.
    trace:
        ``(epoch, workload, policy)`` triples for ``fixed-trace``.
    max_host_epochs:
        Hard cap on host epochs (guards non-terminating arrivals).
    tenant_epochs:
        Per-tenant epoch cap overriding the workload's own length
        (``None`` runs each workload to its natural end).
    pressure:
        Fraction of each node's free memory pinned before any tenant
        arrives, in ``[0, 1)`` — the "loaded server" starting state.
    seed:
        Scenario root seed; arrival draws and every per-tenant seed
        derive from it deterministically.
    """

    arrival: str = "poisson"
    machine: str = "B"
    workloads: Tuple[str, ...] = ("SSCA.20",)
    policies: Tuple[str, ...] = ("thp",)
    arrival_rate: float = 0.05
    max_tenants: int = 4
    target_active: int = 2
    trace: Tuple[Tuple[int, str, str], ...] = ()
    max_host_epochs: int = 2000
    tenant_epochs: Optional[int] = None
    pressure: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ConfigurationError("scenario needs at least one workload")
        if not self.policies:
            raise ConfigurationError("scenario needs at least one policy")
        if not (
            math.isfinite(self.arrival_rate)
            and 0 <= self.arrival_rate <= MAX_ARRIVAL_RATE
        ):
            raise ConfigurationError(
                f"arrival_rate must be finite and in [0, {MAX_ARRIVAL_RATE:.0f}],"
                f" not {self.arrival_rate!r}"
            )
        if self.max_tenants <= 0:
            raise ConfigurationError("max_tenants must be positive")
        if self.target_active <= 0:
            raise ConfigurationError("target_active must be positive")
        if self.max_host_epochs <= 0:
            raise ConfigurationError("max_host_epochs must be positive")
        if self.tenant_epochs is not None and self.tenant_epochs <= 0:
            raise ConfigurationError("tenant_epochs must be positive")
        if not 0.0 <= self.pressure < 1.0:
            raise ConfigurationError("pressure must be in [0, 1)")
        for entry in self.trace:
            if len(entry) != 3 or int(entry[0]) < 0:
                raise ConfigurationError(
                    "trace entries must be (epoch>=0, workload, policy)"
                )
