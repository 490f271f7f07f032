"""The shared host: one machine multiplexing N tenants per epoch.

A :class:`Host` owns what colocated processes share on a real NUMA
server — the :class:`~repro.vm.frame_allocator.PhysicalMemory` frame
allocator, the interconnect (each tenant prices its traffic against the
sum of the others' rates), and the epoch clock — while every
:class:`~repro.sim.engine.Tenant` keeps its private address space,
policy, and monitoring state.  Each host epoch steps every active
tenant once; tenants that exhaust their workload complete, tenants that
exhaust *memory* are OOM-killed and release every frame back to the
allocator, aging it for later arrivals.

The single-workload :class:`~repro.sim.engine.Simulation` runs through
this same loop as the N=1 special case, so the engine goldens certify
the multiplexing path too.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.invariants import InvariantChecker
from repro.errors import AllocationError, ConfigurationError, SimulationError
from repro.hardware.topology import NumaTopology
from repro.options import RuntimeOptions
from repro.sim.engine import Tenant
from repro.vm.address_space import AddressSpace
from repro.vm.frame_allocator import PhysicalMemory


class Host:
    """Shared allocator + epoch clock driving a set of tenants.

    Tenants are admitted with :meth:`admit` (at construction time or
    mid-run, which is how scenario arrivals work), stepped in admission
    order by :meth:`step_epoch`, and leave either by completing their
    workload or by being OOM-killed when the shared allocator cannot
    satisfy a fault.  :attr:`status` records every tenant's lifecycle
    state (``running`` / ``completed`` / ``oom-killed`` / ``released``).
    The host holds a tenant only while it runs, and its address space
    only until it leaves (release, OOM kill or eviction), so a departed
    tenant and its stream bank die with the caller's last reference.

    Under ``REPRO_CHECK`` the host alone checks invariants, with one
    :class:`~repro.analysis.invariants.InvariantChecker`: each tenant
    after each of its epochs, the allocator and cross-tenant page
    conservation once per host epoch, and each departing tenant once.
    A tenant stepped without a host is not checked.
    """

    def __init__(
        self,
        machine: NumaTopology,
        phys: Optional[PhysicalMemory] = None,
    ) -> None:
        self.machine = machine
        self.phys = (
            PhysicalMemory.for_topology(machine) if phys is None else phys
        )
        #: Address space of every tenant that holds frames here (running,
        #: or completed and not yet released), by tenant id, in
        #: admission order.
        self.address_spaces: Dict[int, AddressSpace] = {}
        #: Tenants still running, in admission order.
        self.active: List[Tenant] = []
        #: Lifecycle state by tenant id.
        self.status: Dict[int, str] = {}
        #: Host epochs completed (the shared clock; tenants admitted
        #: late keep their own local epoch counters).
        self.epoch = 0
        self.checker = (
            InvariantChecker() if RuntimeOptions.from_env().check else None
        )

    # ------------------------------------------------------------------
    # Admission and departure
    # ------------------------------------------------------------------
    def admit(self, tenant: Tenant) -> None:
        """Admit a tenant and start its workload on this host."""
        if tenant.phys is not self.phys:
            raise SimulationError(
                "tenant was built against a different allocator; pass "
                "the host's phys to the Tenant constructor"
            )
        if tenant.machine is not self.machine:
            raise SimulationError("tenant was built for another machine")
        if tenant.tenant_id in self.status:
            raise SimulationError(
                f"tenant id {tenant.tenant_id} admitted twice"
            )
        self.address_spaces[tenant.tenant_id] = tenant.asp
        self.active.append(tenant)
        self.status[tenant.tenant_id] = "running"
        tenant.start()

    def release(self, tenant: Tenant) -> int:
        """Return a completed tenant's pages to the shared allocator.

        Call after harvesting the tenant's result: releasing tears down
        the address space (final page counts become zero), which is
        exactly what process exit does to a real server's allocator.
        Only a completed tenant waits to be released, so each tenant
        departs once: a running, never-admitted, OOM-killed or already
        released tenant raises :class:`SimulationError`.
        """
        status = self.status.get(tenant.tenant_id)
        if status != "completed":
            raise SimulationError(
                f"cannot release tenant {tenant.tenant_id}: it is "
                f"{status or 'not admitted'}, not completed"
            )
        return self._depart(tenant, "released")

    def evict(self, tenant: Tenant) -> int:
        """Forcibly remove a still-running tenant and free its pages.

        For scenario truncation (the host clock ran out): harvest the
        tenant's partial result *before* evicting — release tears the
        address space down.
        """
        if self.status.get(tenant.tenant_id) != "running":
            raise SimulationError("evict targets running tenants")
        self.active.remove(tenant)
        return self._depart(tenant, "released")

    def _depart(self, tenant: Tenant, status: str) -> int:
        """Free a leaving tenant's pages, check it returned them all,
        and drop its address space."""
        freed = tenant.release()
        self.status[tenant.tenant_id] = status
        self.address_spaces.pop(tenant.tenant_id, None)
        if self.checker is not None:
            self.checker.after_departure(tenant)
        return freed

    # ------------------------------------------------------------------
    # The epoch loop
    # ------------------------------------------------------------------
    def background_rates(self, tenant: Tenant) -> np.ndarray:
        """Other active tenants' traffic rates, summed per node pair.

        Zeros when no co-tenant has produced traffic yet: rates are
        non-negative, so adding zeros prices a lone tenant's epochs
        exactly as its own rates alone would.
        """
        n = self.machine.n_nodes
        total = np.zeros((n, n))
        for other in self.active:
            if other is not tenant and other.last_rates is not None:
                total += other.last_rates
        return total

    def step_epoch(self) -> Tuple[List[Tenant], List[Tenant]]:
        """Step every active tenant one epoch on the shared clock.

        Returns ``(finished, killed)``: tenants that completed their
        workload this epoch and tenants OOM-killed by allocation
        failure.  Killed tenants are released immediately (the kernel
        reclaims a killed process's pages at once); finished tenants
        keep their pages until :meth:`release` so results can be
        harvested first.
        """
        finished: List[Tenant] = []
        killed: List[Tenant] = []
        for tenant in list(self.active):
            tenant._background_rates = self.background_rates(tenant)
            try:
                more = tenant.step()
            except AllocationError:
                self.active.remove(tenant)
                self._depart(tenant, "oom-killed")
                killed.append(tenant)
                continue
            if self.checker is not None:
                self.checker.after_tenant_epoch(tenant)
            if not more:
                self.active.remove(tenant)
                self.status[tenant.tenant_id] = "completed"
                finished.append(tenant)
        self.epoch += 1
        if self.checker is not None:
            self.checker.after_host_epoch(self)
        return finished, killed

    def run_to_completion(self) -> None:
        """Drive epochs until every admitted tenant has left."""
        while self.active:
            self.step_epoch()

    # ------------------------------------------------------------------
    # Memory pressure
    # ------------------------------------------------------------------
    def apply_pressure(self, fraction: float) -> int:
        """Pin ``fraction`` of every node's free memory, fragmenting it.

        Models a long-running host's occupancy without simulating the
        occupants: the pins go through
        :meth:`~repro.vm.frame_allocator.NodeMemory.pin_fragmented`, so
        they are counted as ``pinned_bytes`` (one count per node, no
        record per pin) and page conservation keeps holding, and every
        pinned byte also breaks huge-page contiguity — the
        promotion-failure regime the paper attributes to loaded servers,
        as opposed to a fresh boot.
        """
        if not 0.0 <= fraction < 1.0:
            raise ConfigurationError(
                f"pressure fraction {fraction} outside [0, 1)"
            )
        pinned: int = 0
        for node in self.phys.nodes:
            pinned += node.pin_fragmented(int(node.free_bytes * fraction))
        return pinned
