"""A departed scenario tenant dies with its departure.

The host keeps neither a departed tenant nor its address space, and the
scenario runner keeps only the tenant's result.  With the cyclic garbage
collector off, reference counting alone must free a departed tenant and
its stream bank before the next host epoch.
"""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro.analysis.invariants import InvariantViolation
from repro.experiments.scenario_runner import execute_scenario
from repro.options import CHECK_ENV
from repro.scenarios import ScenarioConfig
from repro.sim.config import SimConfig
from repro.sim.engine import Tenant
from repro.sim.host import Host
from repro.sim.policy import LinuxPolicy
from repro.workloads.base import CostProfile, WorkloadInstance
from repro.workloads.regions import PartitionedRegion, SharedRegion

MIB = 1 << 20

#: Tenant 0 leaves at host epoch 4, while tenant 1 (admitted at epoch
#: 2, so its bank took the slot) still runs.
OVERLAPPING = ScenarioConfig(
    arrival="fixed-trace",
    machine="A",
    trace=((0, "Kmeans", "thp"), (2, "SSCA.20", "linux-4k")),
    max_tenants=2,
    tenant_epochs=4,
    seed=0,
)


def test_departed_tenant_and_bank_die_by_the_next_host_epoch(
    refcount_only, monkeypatch
):
    tenants = {}
    banks = {}
    admit = Host.admit

    def recording_admit(host, tenant):
        tenants[tenant.tenant_id] = weakref.ref(tenant)
        banks[tenant.tenant_id] = weakref.ref(tenant._stream_bank)
        admit(host, tenant)

    alive = []
    step_epoch = Host.step_epoch

    def recording_step(host):
        alive.append((
            host.epoch,
            {i for i, ref in tenants.items() if ref() is not None},
            {i for i, ref in banks.items() if ref() is not None},
        ))
        return step_epoch(host)

    monkeypatch.setattr(Host, "admit", recording_admit)
    monkeypatch.setattr(Host, "step_epoch", recording_step)
    result = execute_scenario(OVERLAPPING, SimConfig.quick(seed=0))

    assert result.events == [
        (0, "spawn", 0), (2, "spawn", 1), (4, "exit", 0), (6, "exit", 1),
    ]
    assert [len(t.result.epoch_times_s) for t in result.tenants] == [4, 4]
    by_epoch = {epoch: (live, live_banks) for epoch, live, live_banks in alive}
    assert by_epoch[3] == ({0, 1}, {0, 1})
    assert by_epoch[4] == ({1}, {1})
    assert by_epoch[5] == ({1}, {1})


def _tenant(machine, host, tenant_id):
    regions = [
        PartitionedRegion("p", (6 * MIB) // 3, 0.6),
        SharedRegion("s", (12 * MIB) // 3, 0.4),
    ]
    cost = CostProfile(cpu_seconds=0.05, mem_accesses=1e7, dram_accesses=1e6)
    instance = WorkloadInstance(
        f"toy{tenant_id}", machine, regions, cost, total_epochs=3
    )
    return Tenant(
        machine,
        instance,
        LinuxPolicy(False),
        config=SimConfig(stream_length=256, seed=0),
        phys=host.phys,
        tenant_id=tenant_id,
    )


def test_host_checker_catches_a_departed_tenant_that_leaks(
    refcount_only, monkeypatch, tiny_topo
):
    monkeypatch.setenv(CHECK_ENV, "1")
    host = Host(tiny_topo)
    tenant = _tenant(tiny_topo, host, 0)
    host.admit(tenant)
    host.run_to_completion()
    host.release(tenant)
    asp = tenant.asp
    departed = weakref.ref(tenant)
    del tenant
    assert departed() is None
    assert 0 not in host.address_spaces

    # The departed tenant's address space maps a page again: a frame
    # that no running tenant owns and that nothing will ever free.
    asp.fault_in(np.array([0]), 0, False)
    host.admit(_tenant(tiny_topo, host, 1))
    with pytest.raises(
        InvariantViolation, match="cross-tenant page conservation broken"
    ) as excinfo:
        host.step_epoch()
    assert excinfo.value.epoch == host.epoch
