"""Tests for the simulation engine on small synthetic workloads."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation
from repro.sim.policy import LinuxPolicy
from repro.vm.layout import PageSize
from repro.workloads.base import CostProfile, WorkloadInstance
from repro.workloads.regions import PartitionedRegion, SharedRegion, StreamRegion

MIB = 1 << 20


def make_instance(machine, total_epochs=4, regions=None):
    regions = regions or [
        PartitionedRegion("p", 2 * MIB, 0.6),
        SharedRegion("s", 4 * MIB, 0.4),
    ]
    cost = CostProfile(cpu_seconds=0.05, mem_accesses=1e7, dram_accesses=1e6)
    return WorkloadInstance("toy", machine, regions, cost, total_epochs=total_epochs)


def quick_cfg(**kwargs):
    defaults = dict(stream_length=256, seed=0)
    defaults.update(kwargs)
    return SimConfig(**defaults)


class TestBasicRun:
    def test_runs_to_completion(self, tiny_topo):
        sim = Simulation(tiny_topo, make_instance(tiny_topo), LinuxPolicy(False), quick_cfg())
        result = sim.run()
        assert result.runtime_s > 0
        assert len(result.epoch_times_s) == 4
        assert result.policy == "linux-4k"

    def test_thp_backs_huge_pages(self, tiny_topo):
        sim = Simulation(tiny_topo, make_instance(tiny_topo), LinuxPolicy(True), quick_cfg())
        result = sim.run()
        assert result.final_page_counts[PageSize.SIZE_2M] > 0
        assert result.final_page_counts[PageSize.SIZE_4K] == 0

    def test_linux4k_uses_small_pages(self, tiny_topo):
        sim = Simulation(tiny_topo, make_instance(tiny_topo), LinuxPolicy(False), quick_cfg())
        result = sim.run()
        assert result.final_page_counts[PageSize.SIZE_2M] == 0
        assert result.final_page_counts[PageSize.SIZE_4K] > 0

    def test_counters_populated(self, tiny_topo):
        sim = Simulation(tiny_topo, make_instance(tiny_topo), LinuxPolicy(False), quick_cfg())
        result = sim.run()
        bank = result.bank
        assert bank.total("l2_data_misses") > 0
        assert bank.total("page_faults_4k") > 0
        assert 0 <= bank.lar() <= 100
        assert bank.imbalance() >= 0

    def test_fewer_faults_under_thp(self, tiny_topo):
        r4 = Simulation(
            tiny_topo, make_instance(tiny_topo), LinuxPolicy(False), quick_cfg()
        ).run()
        r2 = Simulation(
            tiny_topo, make_instance(tiny_topo), LinuxPolicy(True), quick_cfg()
        ).run()
        assert (
            r2.bank.total("page_faults_2m")
            < r4.bank.total("page_faults_4k") / 100
        )

    def test_max_epochs_cap(self, tiny_topo):
        cfg = quick_cfg(max_epochs=2)
        sim = Simulation(tiny_topo, make_instance(tiny_topo, total_epochs=10), LinuxPolicy(False), cfg)
        result = sim.run()
        assert len(result.epoch_times_s) == 2

    def test_wrong_machine_rejected(self, tiny_topo, quad_topo):
        inst = make_instance(tiny_topo)
        with pytest.raises(SimulationError):
            Simulation(quad_topo, inst, LinuxPolicy(False), quick_cfg())

    def test_every_run_reports_hot_page_stats(self, tiny_topo):
        """The tracker always folds: a run reports PAMUP, NHP and PSP
        over every epoch it ran."""
        inst = make_instance(tiny_topo)
        sim = Simulation(tiny_topo, inst, LinuxPolicy(False), quick_cfg())
        result = sim.run()
        stats = result.hot_stats
        assert sim._tracked_epochs == inst.total_epochs
        assert stats.total_weight == pytest.approx(
            result.bank.traffic.sum(), rel=1e-12
        )
        m = result.metrics()
        assert (m.pamup_pct, m.n_hot_pages, m.psp_pct) == (
            stats.pamup_pct,
            stats.n_hot_pages,
            stats.psp_pct,
        )

    def test_tracker_weighs_accesses_as_the_traffic_does(self, tiny_topo):
        """The bank scales its tracker counts by the engine's traffic
        scale, so a run's tracked weight is its DRAM traffic."""
        inst = make_instance(tiny_topo)
        sim = Simulation(tiny_topo, inst, LinuxPolicy(False), quick_cfg())
        result = sim.run()
        tracker = sim._stream_bank.tracker(inst.total_epochs)
        assert result.bank.traffic.sum() > 0
        assert tracker.weight.sum() == pytest.approx(
            result.bank.traffic.sum(), rel=1e-12
        )


class TestDeterminism:
    def test_same_seed_same_result(self, tiny_topo):
        def run_once():
            return Simulation(
                tiny_topo, make_instance(tiny_topo), LinuxPolicy(False), quick_cfg()
            ).run()

        a, b = run_once(), run_once()
        assert a.runtime_s == b.runtime_s
        assert a.bank.lar() == b.bank.lar()

    def test_different_seed_differs(self, tiny_topo):
        a = Simulation(
            tiny_topo, make_instance(tiny_topo), LinuxPolicy(False), quick_cfg(seed=0)
        ).run()
        b = Simulation(
            tiny_topo, make_instance(tiny_topo), LinuxPolicy(False), quick_cfg(seed=1)
        ).run()
        assert a.runtime_s != b.runtime_s


class TestTimeModel:
    def test_epoch_time_at_least_cpu_time(self, tiny_topo):
        inst = make_instance(tiny_topo)
        result = Simulation(tiny_topo, inst, LinuxPolicy(False), quick_cfg()).run()
        assert min(result.epoch_times_s) >= inst.cost.cpu_seconds

    def test_first_epoch_pays_allocation(self, tiny_topo):
        result = Simulation(
            tiny_topo, make_instance(tiny_topo), LinuxPolicy(False), quick_cfg()
        ).run()
        # All premaps happen at epoch 0 for static regions.
        assert result.epoch_times_s[0] > result.epoch_times_s[-1]

    def test_growth_spreads_fault_time(self, tiny_topo):
        regions = [StreamRegion("st", 8 * MIB, 1.0, grow_epochs=4)]
        result = Simulation(
            tiny_topo,
            make_instance(tiny_topo, regions=regions),
            LinuxPolicy(False),
            quick_cfg(),
        ).run()
        faults = [e.page_faults_4k for e in result.bank.epochs]
        assert all(f > 0 for f in faults)

    def test_contended_traffic_slows_epochs(self, tiny_topo):
        # All traffic to one node (master-init) vs spread: the
        # master-init run must be slower.
        spread = [SharedRegion("s", 8 * MIB, 1.0)]
        hot = [SharedRegion("s", 8 * MIB, 1.0, master_init=True)]
        r_spread = Simulation(
            tiny_topo, make_instance(tiny_topo, regions=spread), LinuxPolicy(False), quick_cfg()
        ).run()
        r_hot = Simulation(
            tiny_topo, make_instance(tiny_topo, regions=hot), LinuxPolicy(False), quick_cfg()
        ).run()
        assert r_hot.runtime_s > r_spread.runtime_s

    def test_time_breakdown_sums_positive(self, tiny_topo):
        result = Simulation(
            tiny_topo, make_instance(tiny_topo), LinuxPolicy(False), quick_cfg()
        ).run()
        for component in ("time_cpu_s", "time_dram_s", "time_fault_s"):
            assert result.bank.total(component) > 0


class TestBackingFractions:
    def test_fraction_cache_consistency(self, tiny_topo):
        inst = make_instance(tiny_topo)
        sim = Simulation(tiny_topo, inst, LinuxPolicy(True), quick_cfg())
        sim.run()
        region = inst.regions[0]
        f4, f2, f1 = sim._backing_fractions(region.lo, region.hi)
        assert f2 == pytest.approx(1.0)
        assert f4 == pytest.approx(0.0)
        assert f1 == pytest.approx(0.0)

    def test_fractions_after_split(self, tiny_topo):
        inst = make_instance(tiny_topo)
        sim = Simulation(tiny_topo, inst, LinuxPolicy(True), quick_cfg())
        sim.run()
        region = inst.regions[0]
        chunk = region.lo // 512
        sim.asp.split_chunk(chunk)
        f4, f2, _ = sim._backing_fractions(region.lo, region.hi)
        assert 0 < f4 < 1
        assert f4 + f2 == pytest.approx(1.0)
