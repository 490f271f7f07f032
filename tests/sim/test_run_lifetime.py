"""A finished run's state dies with the run, by reference counting.

The cyclic garbage collector is off in every test here, so an object
lives exactly as long as something refers to it.  A reference cycle (a
tenant and its executor, a host and its invariant checker) or a memo
that outlives its runs shows up as a live object, not as memory that
the next full collection happens to free.  A stream bank
holds every thread's streams for its epochs (11 MB for a machine-B
bank at ``--quick``), so what keeps a run alive keeps its bank alive.
"""

from __future__ import annotations

import weakref

import pytest

from repro.experiments import runner as runner_mod
from repro.experiments.configs import POLICIES, make_policy
from repro.experiments.parallel import GridRunner
from repro.experiments.runner import RunSpec
from repro.hardware.machines import machine_by_name
from repro.options import CACHE_ENABLE_ENV, CHECK_ENV
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation
from repro.sim.host import Host
from repro.workloads import streambank
from repro.workloads.registry import get_workload

#: Every registry policy, plus a two-member stack.
LIFETIME_POLICIES = sorted(POLICIES) + ["carrefour-2m+replication"]


@pytest.mark.parametrize("check", [False, True], ids=["plain", "checked"])
@pytest.mark.parametrize("policy", LIFETIME_POLICIES)
def test_deleting_a_finished_simulation_frees_it(
    refcount_only, monkeypatch, policy, check
):
    if check:
        monkeypatch.setenv(CHECK_ENV, "1")
    else:
        monkeypatch.delenv(CHECK_ENV, raising=False)
    hosts = []
    init = Host.__init__

    def recording_init(host, *args, **kwargs):
        init(host, *args, **kwargs)
        hosts.append(host)

    monkeypatch.setattr(Host, "__init__", recording_init)
    sim = Simulation(
        machine_by_name("A"),
        get_workload("Kmeans"),
        make_policy(policy, seed=0),
        config=SimConfig.quick(seed=0),
    )
    result = sim.run()
    (host,) = hosts
    hosts.clear()
    assert (host.checker is not None) is check
    parts = {
        "simulation": sim,
        "address space": sim.asp,
        "allocator": sim.phys,
        "policy": sim.policy,
        "executor": sim.executor,
        "profiler": sim.profiler,
        "host": host,
    }
    if check:
        parts["checker"] = host.checker
    refs = {name: weakref.ref(obj) for name, obj in parts.items()}
    del host
    bank = weakref.ref(sim._stream_bank)
    del sim, parts
    assert [name for name, ref in refs.items() if ref() is not None] == []
    # The result holds none of it, and only the slot keeps the bank.
    assert result.runtime_s > 0
    assert bank() is not None
    streambank.clear_stream_banks()
    assert bank() is None


#: Two banks, given interleaved: Kmeans, SSCA.20, then Kmeans again.
INTERLEAVED_GRID = [
    RunSpec("Kmeans", "A", "linux-4k"),
    RunSpec("SSCA.20", "A", "linux-4k"),
    RunSpec("Kmeans", "A", "thp"),
]


def test_a_serial_grid_keeps_one_bank(refcount_only, monkeypatch):
    """Runs that share a bank run back to back, so one slot serves
    them all: each bank's rows are generated once, and when each run
    ends only the slot's bank is alive."""
    banks = []
    init = streambank.StreamBank.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        banks.append(weakref.ref(self))

    generated = []
    generate_row = streambank.StreamBank._generate_row

    def logged(self, block, i):
        generated.append((self.fingerprint, block.epoch0 + i))
        return generate_row(self, block, i)

    order = []
    live = []
    execute_run = runner_mod.execute_run

    def counted(spec, config):
        result = execute_run(spec, config)
        order.append(spec)
        live.append(sum(ref() is not None for ref in banks))
        return result

    monkeypatch.setattr(streambank.StreamBank, "__init__", tracked)
    monkeypatch.setattr(streambank.StreamBank, "_generate_row", logged)
    monkeypatch.setattr(runner_mod, "execute_run", counted)
    monkeypatch.setenv(CACHE_ENABLE_ENV, "0")
    results = GridRunner(SimConfig.quick(), jobs=1).run(INTERLEAVED_GRID)

    assert list(results) == INTERLEAVED_GRID
    assert order == [INTERLEAVED_GRID[i] for i in (0, 2, 1)]
    assert live == [1, 1, 1]
    assert len(banks) == 2
    assert len(generated) == len(set(generated))
    assert len({fingerprint for fingerprint, _ in generated}) == 2
