"""Tests for the AutoNUMA (Linux NUMA balancing) baseline policy."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hardware.counters import CounterBank
from repro.hardware.ibs import IbsSamples
from repro.core.autonuma import AutoNumaConfig, AutoNumaPolicy
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation, apply_decisions
from repro.sim.policy import LinuxPolicy
from repro.vm.address_space import BACKING_ID_2M_OFFSET
from repro.workloads.base import CostProfile, WorkloadInstance
from repro.workloads.regions import SharedRegion
from tests.vm_helpers import node_of_backing

MIB = 1 << 20


def make_sim(topo, thp=True):
    cost = CostProfile(cpu_seconds=0.05, mem_accesses=1e6, dram_accesses=1e5)
    inst = WorkloadInstance(
        "toy", topo, [SharedRegion("s", 8 * MIB, 1.0)], cost, total_epochs=2
    )
    sim = Simulation(topo, inst, LinuxPolicy(thp), SimConfig(stream_length=256))
    nodes = topo.core_to_node[: inst.n_threads].astype(np.int64)
    inst.premap_epoch(0, sim.asp, nodes, thp)
    return sim


def samples_for(sim, granules, nodes):
    n = len(granules)
    return IbsSamples(
        granule=np.asarray(granules, dtype=np.int64),
        accessing_node=np.asarray(nodes, dtype=np.int8),
        home_node=sim.asp.home_nodes(np.asarray(granules, dtype=np.int64)),
        thread=np.zeros(n, dtype=np.int16),
        from_dram=np.ones(n, dtype=bool),
    )


class TestConfig:
    def test_defaults(self):
        AutoNumaConfig()

    def test_invalid_streak(self):
        with pytest.raises(ConfigurationError):
            AutoNumaConfig(migrate_streak=0)

    def test_invalid_cost(self):
        with pytest.raises(ConfigurationError):
            AutoNumaConfig(hint_fault_cost_s=-1)

    def test_names(self):
        assert AutoNumaPolicy(thp=True).name == "autonuma"
        assert AutoNumaPolicy(thp=False).name == "autonuma-4k"


class TestTwoStageFilter:
    def test_single_fault_does_not_migrate(self, tiny_topo):
        sim = make_sim(tiny_topo)
        policy = AutoNumaPolicy()
        region = sim.instance.regions[0]
        window = CounterBank(2, 4)
        summary, _ = apply_decisions(
            sim, policy.decide(sim, samples_for(sim, [region.lo], [1]), window)
        )
        assert summary.migrated_2m == 0

    def test_second_consecutive_fault_migrates(self, tiny_topo):
        sim = make_sim(tiny_topo)
        policy = AutoNumaPolicy()
        region = sim.instance.regions[0]
        window = CounterBank(2, 4)
        chunk = region.lo // 512
        target_node = 1 - node_of_backing(sim.asp, BACKING_ID_2M_OFFSET + chunk)
        for _ in range(2):
            summary, _ = apply_decisions(
                sim,
                policy.decide(
                    sim, samples_for(sim, [region.lo], [target_node]), window
                ),
            )
        assert node_of_backing(sim.asp, BACKING_ID_2M_OFFSET + chunk) == target_node
        assert summary.migrated_2m == 1

    def test_alternating_nodes_never_migrate(self, tiny_topo):
        sim = make_sim(tiny_topo)
        policy = AutoNumaPolicy()
        region = sim.instance.regions[0]
        window = CounterBank(2, 4)
        chunk = region.lo // 512
        home = node_of_backing(sim.asp, BACKING_ID_2M_OFFSET + chunk)
        moved = 0
        for node in (0, 1, 0, 1):
            # One page, many samples per interval, dominant node flips.
            summary, _ = apply_decisions(
                sim,
                policy.decide(
                    sim, samples_for(sim, [region.lo] * 4, [node] * 4), window
                ),
            )
            moved += summary.migrated_2m
        # Streak resets on every flip: at most the first settle.
        assert node_of_backing(sim.asp, BACKING_ID_2M_OFFSET + chunk) in (0, 1, home)
        assert moved <= 1

    def test_hint_fault_overhead_scales(self, tiny_topo):
        sim = make_sim(tiny_topo)
        policy = AutoNumaPolicy()
        region = sim.instance.regions[0]
        window = CounterBank(2, 4)
        small, _ = apply_decisions(
            sim, policy.decide(sim, samples_for(sim, [region.lo], [0]), window)
        )
        big, _ = apply_decisions(
            sim,
            policy.decide(
                sim, samples_for(sim, [region.lo] * 100, [0] * 100), window
            ),
        )
        assert big.compute_s > small.compute_s

    def test_empty_samples(self, tiny_topo):
        sim = make_sim(tiny_topo)
        policy = AutoNumaPolicy()
        summary, _ = apply_decisions(
            sim, policy.decide(sim, IbsSamples.empty(), CounterBank(2, 4))
        )
        assert summary.bytes_migrated == 0


class TestEndToEnd:
    def test_autonuma_cannot_split(self, run):
        result = run("CG.D", "B", "autonuma")
        m = result.metrics()
        assert m.pages_split_2m == 0
        # The hot pages survive the whole run.
        assert m.n_hot_pages >= 2

    def test_autonuma_fixes_master_init(self, run):
        base = run("pca", "B", "linux-4k")
        auto = run("pca", "B", "autonuma")
        assert auto.improvement_over(base) > 20.0

    def test_autonuma_loses_to_lp_on_cg(self, run):
        base = run("CG.D", "B", "linux-4k")
        auto = run("CG.D", "B", "autonuma").improvement_over(base)
        lp = run("CG.D", "B", "carrefour-lp").improvement_over(base)
        assert lp > auto + 10.0
