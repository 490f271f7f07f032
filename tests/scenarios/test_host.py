"""Host multiplexing: shared allocator, lifecycles, OOM, pressure."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.invariants import (
    InvariantViolation,
    check_host_conservation,
    check_tenant_released,
)
from repro.errors import SimulationError
from repro.options import CHECK_ENV
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation, Tenant
from repro.sim.host import Host
from repro.sim.policy import LinuxPolicy
from repro.vm.frame_allocator import PhysicalMemory
from repro.workloads.base import CostProfile, WorkloadInstance
from repro.workloads.regions import PartitionedRegion, SharedRegion

MIB = 1 << 20


@pytest.fixture(autouse=True)
def checked(monkeypatch):
    """Every host and tenant here runs the invariant checkers."""
    monkeypatch.setenv(CHECK_ENV, "1")


def make_instance(machine, name="toy", total_epochs=4, mib=6):
    regions = [
        PartitionedRegion("p", (mib * MIB) // 3, 0.6),
        SharedRegion("s", (2 * mib * MIB) // 3, 0.4),
    ]
    cost = CostProfile(cpu_seconds=0.05, mem_accesses=1e7, dram_accesses=1e6)
    return WorkloadInstance(
        name, machine, regions, cost, total_epochs=total_epochs
    )


def quick_cfg(**kwargs):
    defaults = dict(stream_length=256, seed=0)
    defaults.update(kwargs)
    return SimConfig(**defaults)


def make_tenant(machine, host, tenant_id, cfg=None, **instance_kwargs):
    cfg = cfg or quick_cfg()
    return Tenant(
        machine,
        make_instance(machine, **instance_kwargs),
        LinuxPolicy(False),
        config=cfg,
        phys=host.phys,
        tenant_id=tenant_id,
    )


class TestColocation:
    def test_two_tenants_share_one_allocator(self, tiny_topo):
        host = Host(tiny_topo)
        a = make_tenant(tiny_topo, host, 0, name="a")
        b = make_tenant(tiny_topo, host, 1, name="b")
        host.admit(a)
        host.admit(b)
        assert a.phys is b.phys is host.phys
        assert not a.owns_phys and not b.owns_phys
        host.run_to_completion()
        assert host.status == {0: "completed", 1: "completed"}
        assert a.result().runtime_s > 0
        assert b.result().runtime_s > 0
        # Both footprints still live on the shared allocator.
        assert host.phys.total_used_bytes > 0

    def test_invariant_checker_runs_with_shared_allocator(self, tiny_topo):
        host = Host(tiny_topo)
        assert host.checker is not None
        host.admit(make_tenant(tiny_topo, host, 0))
        host.run_to_completion()
        assert host.checker._epochs_checked == host.epoch

    def test_release_returns_every_page(self, tiny_topo):
        host = Host(tiny_topo)
        tenant = make_tenant(tiny_topo, host, 0)
        host.admit(tenant)
        host.run_to_completion()
        assert host.phys.total_used_bytes > 0
        freed = host.release(tenant)
        assert freed > 0
        assert host.phys.total_used_bytes == 0
        assert host.status[0] == "released"
        check_tenant_released(tenant.asp)

    def test_staggered_admission(self, tiny_topo):
        host = Host(tiny_topo)
        first = make_tenant(tiny_topo, host, 0, total_epochs=6)
        host.admit(first)
        host.step_epoch()
        host.step_epoch()
        late = make_tenant(tiny_topo, host, 1, total_epochs=2)
        host.admit(late)
        host.run_to_completion()
        assert host.status == {0: "completed", 1: "completed"}
        # The late tenant ran its own local clock, not the host's.
        assert len(late.result().epoch_times_s) == 2
        assert len(first.result().epoch_times_s) == 6

    def test_colocated_run_no_slower_than_solo(self, tiny_topo):
        solo = Simulation(
            tiny_topo,
            make_instance(tiny_topo, name="solo"),
            LinuxPolicy(False),
            quick_cfg(),
        ).run()
        host = Host(tiny_topo)
        a = make_tenant(tiny_topo, host, 0, name="solo")
        b = make_tenant(tiny_topo, host, 1, name="rival")
        host.admit(a)
        host.admit(b)
        host.run_to_completion()
        # Co-runner traffic can only add congestion, never remove it.
        assert a.result().runtime_s >= solo.runtime_s


class TestAdmission:
    def test_foreign_allocator_rejected(self, tiny_topo):
        host = Host(tiny_topo)
        foreign = Tenant(
            tiny_topo,
            make_instance(tiny_topo),
            LinuxPolicy(False),
            config=quick_cfg(),
            phys=PhysicalMemory.for_topology(tiny_topo),
            tenant_id=0,
        )
        with pytest.raises(SimulationError, match="allocator"):
            host.admit(foreign)

    def test_wrong_machine_rejected(self, tiny_topo, quad_topo):
        host = Host(tiny_topo)
        tenant = Tenant(
            quad_topo,
            make_instance(quad_topo),
            LinuxPolicy(False),
            config=quick_cfg(),
            phys=host.phys,
            tenant_id=0,
        )
        with pytest.raises(SimulationError, match="machine"):
            host.admit(tenant)

    def test_duplicate_id_rejected(self, tiny_topo):
        host = Host(tiny_topo)
        host.admit(make_tenant(tiny_topo, host, 0))
        with pytest.raises(SimulationError, match="twice"):
            host.admit(make_tenant(tiny_topo, host, 0))

    def test_release_running_tenant_rejected(self, tiny_topo):
        host = Host(tiny_topo)
        tenant = make_tenant(tiny_topo, host, 0)
        host.admit(tenant)
        with pytest.raises(SimulationError, match="running"):
            host.release(tenant)

    def test_evict_frees_a_running_tenant(self, tiny_topo):
        host = Host(tiny_topo)
        tenant = make_tenant(tiny_topo, host, 0, total_epochs=10)
        host.admit(tenant)
        host.step_epoch()
        assert host.phys.total_used_bytes > 0
        host.evict(tenant)
        assert host.phys.total_used_bytes == 0
        assert host.status[0] == "released"
        assert not host.active
        with pytest.raises(SimulationError):
            host.evict(tenant)


class TestOom:
    def test_oom_kill_releases_pages(self, tiny_topo):
        host = Host(tiny_topo)
        # Pin almost everything, then admit a tenant that needs more
        # than what's left.
        host.apply_pressure(0.97)
        used_before = host.phys.total_used_bytes
        victim = make_tenant(tiny_topo, host, 0, mib=512)
        host.admit(victim)
        host.run_to_completion()
        assert host.status[0] == "oom-killed"
        # Every frame the victim touched went back to the pool.
        assert host.phys.total_used_bytes == used_before
        check_tenant_released(victim.asp)

    def test_survivor_keeps_running_after_oom(self, tiny_topo):
        host = Host(tiny_topo)
        host.apply_pressure(0.97)
        survivor = make_tenant(tiny_topo, host, 0, mib=2, total_epochs=4)
        victim = make_tenant(tiny_topo, host, 1, mib=512)
        host.admit(survivor)
        host.admit(victim)
        host.run_to_completion()
        assert host.status[1] == "oom-killed"
        assert host.status[0] == "completed"
        assert len(survivor.result().epoch_times_s) == 4


class TestBackgroundRates:
    def test_sums_other_active_tenants(self, tiny_topo):
        host = Host(tiny_topo)
        tenants = [make_tenant(tiny_topo, host, i) for i in range(3)]
        for tenant in tenants:
            host.admit(tenant)
        tenants[0].last_rates = np.full((2, 2), 1.0)
        tenants[1].last_rates = np.full((2, 2), 2.0)
        tenants[2].last_rates = None
        bg = host.background_rates(tenants[2])
        assert np.array_equal(bg, np.full((2, 2), 3.0))
        # Self is excluded and peers without rates contribute nothing.
        assert np.array_equal(
            host.background_rates(tenants[0]), np.full((2, 2), 2.0)
        )

    def test_none_when_alone(self, tiny_topo):
        host = Host(tiny_topo)
        tenant = make_tenant(tiny_topo, host, 0)
        host.admit(tenant)
        assert host.background_rates(tenant) is None

    def test_sum_does_not_alias_a_tenants_rates(self, tiny_topo):
        host = Host(tiny_topo)
        tenants = [make_tenant(tiny_topo, host, i) for i in range(2)]
        for tenant in tenants:
            host.admit(tenant)
        tenants[0].last_rates = np.full((2, 2), 1.0)
        bg = host.background_rates(tenants[1])
        bg += 99.0
        assert np.array_equal(tenants[0].last_rates, np.full((2, 2), 1.0))


class TestPressure:
    def test_pins_requested_fraction(self, tiny_topo):
        host = Host(tiny_topo)
        total = host.phys.total_free_bytes
        pinned = host.apply_pressure(0.7)
        assert pinned == sum(
            node.test_pinned_bytes for node in host.phys.nodes
        )
        assert pinned == pytest.approx(0.7 * total, rel=0.01)

    def test_conservation_holds_under_pressure(self, tiny_topo):
        host = Host(tiny_topo)
        host.apply_pressure(0.5)
        tenant = make_tenant(tiny_topo, host, 0)
        host.admit(tenant)
        host.run_to_completion()
        check_host_conservation(host.phys, [tenant.asp])

    @pytest.mark.parametrize("fraction", [-0.1, 1.0, 1.5])
    def test_invalid_fraction_rejected(self, tiny_topo, fraction):
        host = Host(tiny_topo)
        with pytest.raises(Exception):
            host.apply_pressure(fraction)


class TestHostConservationCheck:
    def test_foreign_address_space_rejected(self, tiny_topo):
        host = Host(tiny_topo)
        other = Host(tiny_topo)
        stranger = make_tenant(tiny_topo, other, 0)
        with pytest.raises(InvariantViolation, match="allocator"):
            check_host_conservation(host.phys, [stranger.asp])

    def test_leak_detected(self, tiny_topo):
        host = Host(tiny_topo)
        tenant = make_tenant(tiny_topo, host, 0)
        host.admit(tenant)
        host.step_epoch()
        # Simulate a leak: allocate frames no tenant mapping explains.
        host.phys[0].alloc_small(4)
        with pytest.raises(InvariantViolation, match="conservation"):
            check_host_conservation(host.phys, [tenant.asp])
