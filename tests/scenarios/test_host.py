"""Host multiplexing: shared allocator, lifecycles, OOM, pressure, and
how often the host checks each invariant."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.analysis import invariants
from repro.analysis.invariants import (
    InvariantViolation,
    check_host_conservation,
    check_tenant_released,
)
from repro.errors import SimulationError
from repro.experiments.scenario_runner import execute_scenario
from repro.options import CHECK_ENV
from repro.scenarios import ScenarioConfig
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
        host.run_to_completion()
        assert host.status == {0: "completed", 1: "completed"}
        assert a.result().runtime_s > 0
        assert b.result().runtime_s > 0
        # Both footprints still live on the shared allocator.
        assert host.phys.total_used_bytes > 0

    def test_invariant_checker_runs_with_shared_allocator(
        self, tiny_topo, monkeypatch
    ):
        host = Host(tiny_topo)
        assert host.checker is not None
        checked = []
        after = host.checker.after_host_epoch

        def counted(checked_host):
            checked.append(checked_host.epoch)
            after(checked_host)

        monkeypatch.setattr(host.checker, "after_host_epoch", counted)
        host.admit(make_tenant(tiny_topo, host, 0))
        host.run_to_completion()
        assert checked == list(range(1, host.epoch + 1))

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

    def test_release_never_admitted_tenant_rejected(self, tiny_topo):
        host = Host(tiny_topo)
        stranger = make_tenant(tiny_topo, host, 5)
        with pytest.raises(SimulationError, match="not admitted"):
            host.release(stranger)
        assert host.status == {}

    def test_release_twice_rejected(self, tiny_topo, monkeypatch):
        host = Host(tiny_topo)
        tenant = make_tenant(tiny_topo, host, 0, total_epochs=2)
        host.admit(tenant)
        host.run_to_completion()
        assert host.release(tenant) > 0
        departures = []
        monkeypatch.setattr(host.checker, "after_departure", departures.append)
        with pytest.raises(SimulationError, match="released"):
            host.release(tenant)
        assert departures == []
        assert host.status == {0: "released"}

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

    def test_release_oom_killed_tenant_rejected(self, tiny_topo):
        host = Host(tiny_topo)
        host.apply_pressure(0.97)
        victim = make_tenant(tiny_topo, host, 0, mib=512)
        host.admit(victim)
        host.run_to_completion()
        with pytest.raises(SimulationError, match="oom-killed"):
            host.release(victim)
        assert host.status == {0: "oom-killed"}

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

    def test_zeros_when_alone(self, tiny_topo):
        """Alone, a tenant's background is zeros: adding them prices
        its epochs exactly as its own rates alone would."""
        host = Host(tiny_topo)
        tenant = make_tenant(tiny_topo, host, 0)
        host.admit(tenant)
        assert np.array_equal(host.background_rates(tenant), np.zeros((2, 2)))
        tenant.last_rates = np.full((2, 2), 1.0)
        assert np.array_equal(host.background_rates(tenant), np.zeros((2, 2)))

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
            node.pinned_bytes for node in host.phys.nodes
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


#: Tenant 0 (Kmeans) runs host epochs 0-3 and tenant 1 (SSCA.20)
#: host epochs 2-5; each is released as it completes.
TWO_TENANTS = ScenarioConfig(
    arrival="fixed-trace",
    machine="A",
    trace=((0, "Kmeans", "thp"), (2, "SSCA.20", "linux-4k")),
    max_tenants=2,
    tenant_epochs=4,
    seed=0,
)


@pytest.fixture
def calls(monkeypatch):
    """The calls each counted check receives (the label of each
    address space checked as released)."""
    seen = {
        "check_address_space": 0,
        "check_physical_memory": 0,
        "_expected_bytes_per_node": 0,
        "check_tenant_released": [],
    }
    for name in seen:
        check = getattr(invariants, name)

        def counted(*args, _check=check, _name=name):
            if _name == "check_tenant_released":
                seen[_name].append(args[0].label)
            else:
                seen[_name] += 1
            return _check(*args)

        monkeypatch.setattr(invariants, name, counted)
    return seen


class TestCheckCounts:
    """Exact call counts, so these cannot flake on a slow machine: each
    tenant is checked after each of its epochs, the allocator once per
    host epoch, page conservation once per host epoch for each address
    space that still holds frames, and each departing tenant once."""

    def test_a_scenario_checks_each_departure_once(self, calls):
        result = execute_scenario(TWO_TENANTS, SimConfig.quick(seed=0))

        assert [t.status for t in result.tenants] == ["completed"] * 2
        tenant_epochs = sum(
            len(t.result.epoch_times_s) for t in result.tenants
        )
        assert (tenant_epochs, result.host_epochs) == (8, 6)
        assert calls == {
            "check_address_space": tenant_epochs,
            "check_physical_memory": result.host_epochs,
            # A tenant holds frames exactly over the host epochs it
            # runs: the scenario releases it as it completes.
            "_expected_bytes_per_node": tenant_epochs,
            "check_tenant_released": ["Kmeans", "SSCA.20"],
        }

    def test_a_truncated_scenario_checks_each_evicted_tenant_once(
        self, calls
    ):
        truncated = dataclasses.replace(TWO_TENANTS, max_host_epochs=3)
        result = execute_scenario(truncated, SimConfig.quick(seed=0))

        assert [t.status for t in result.tenants] == ["truncated"] * 2
        assert [len(t.result.epoch_times_s) for t in result.tenants] == [3, 1]
        assert calls == {
            "check_address_space": 4,
            "check_physical_memory": 3,
            "_expected_bytes_per_node": 4,
            "check_tenant_released": ["Kmeans", "SSCA.20"],
        }

    def test_a_completed_tenant_is_conserved_until_it_is_released(
        self, calls, tiny_topo
    ):
        """Tenant 0 completes at host epoch 2 but keeps its frames
        through host epoch 3; tenant 1 runs four epochs and is never
        released."""
        host = Host(tiny_topo)
        early = make_tenant(tiny_topo, host, 0, name="a", total_epochs=2)
        host.admit(early)
        host.admit(make_tenant(tiny_topo, host, 1, name="b"))
        host.step_epoch()
        host.step_epoch()
        host.step_epoch()
        host.release(early)
        host.step_epoch()

        assert host.status == {0: "released", 1: "completed"}
        assert list(host.address_spaces) == [1]
        assert calls == {
            "check_address_space": 6,
            "check_physical_memory": 4,
            "_expected_bytes_per_node": 2 + 2 + 2 + 1,
            "check_tenant_released": ["a"],
        }

    def test_an_oom_killed_tenant_is_checked_once(self, calls, tiny_topo):
        host = Host(tiny_topo)
        host.apply_pressure(0.97)
        survivor = make_tenant(tiny_topo, host, 0, name="survivor", mib=2)
        victim = make_tenant(tiny_topo, host, 1, name="victim", mib=512)
        host.admit(survivor)
        host.admit(victim)
        host.run_to_completion()

        assert host.status == {0: "completed", 1: "oom-killed"}
        assert list(host.address_spaces) == [0]
        victim_epochs = len(victim.result().epoch_times_s)
        assert calls == {
            "check_address_space": 4 + victim_epochs,
            "check_physical_memory": host.epoch,
            "_expected_bytes_per_node": 4 + victim_epochs,
            "check_tenant_released": ["victim"],
        }

    def test_a_release_that_leaves_a_mapping_raises_at_release(
        self, calls, monkeypatch, tiny_topo
    ):
        host = Host(tiny_topo)
        tenant = make_tenant(tiny_topo, host, 0, total_epochs=2)
        host.admit(tenant)
        host.run_to_completion()
        monkeypatch.setattr(tenant, "release", lambda: 0)  # frees nothing

        with pytest.raises(
            InvariantViolation, match="released tenant 'toy' still maps"
        ) as excinfo:
            host.release(tenant)
        assert (excinfo.value.workload, excinfo.value.epoch) == ("toy", 1)
