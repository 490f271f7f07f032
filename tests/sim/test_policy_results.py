"""Tests for the policy interface, action summaries and result types."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.hardware.counters import CounterBank
from repro.sim.config import SimConfig
from repro.sim.decisions import ChargeCompute
from repro.sim.engine import Simulation
from repro.sim.policy import LinuxPolicy, PlacementPolicy, PolicyActionSummary
from repro.sim.results import RunMetrics, SimulationResult
from repro.workloads.base import CostProfile, WorkloadInstance
from repro.workloads.regions import SharedRegion

MIB = 1 << 20


def make_sim(topo, policy, epochs=3):
    cost = CostProfile(cpu_seconds=0.05, mem_accesses=1e6, dram_accesses=1e5)
    inst = WorkloadInstance(
        "toy", topo, [SharedRegion("s", 4 * MIB, 1.0)], cost, total_epochs=epochs
    )
    return Simulation(topo, inst, policy, SimConfig(stream_length=256))


class CountingPolicy(PlacementPolicy):
    """Policy that records every daemon invocation."""

    name = "counting"
    interval_s = 0.05  # fires roughly every epoch

    def __init__(self):
        self.calls = 0
        self.sample_counts = []

    #: Daemon compute time charged per invocation, seconds.
    compute_s = 0.001

    def decide(self, sim, samples, window):
        self.calls += 1
        self.sample_counts.append(len(samples))
        yield ChargeCompute(self.compute_s)


class TestPolicyDaemon:
    def test_daemon_invoked_at_interval(self, tiny_topo):
        policy = CountingPolicy()
        make_sim(tiny_topo, policy, epochs=5).run()
        assert policy.calls >= 3

    def test_daemon_receives_samples(self, tiny_topo):
        policy = CountingPolicy()
        make_sim(tiny_topo, policy, epochs=5).run()
        assert sum(policy.sample_counts) > 0

    def test_no_daemon_for_linux(self, tiny_topo):
        sim = make_sim(tiny_topo, LinuxPolicy(False))
        result = sim.run()
        assert result.action_log == []

    def test_linux_skips_ibs_collection(self, tiny_topo):
        sim = make_sim(tiny_topo, LinuxPolicy(False))
        sim.run()
        assert sim.ibs.rate == 0.0

    def test_action_cost_charged_next_epoch(self, tiny_topo):
        class ExpensivePolicy(CountingPolicy):
            compute_s = 10.0

        cheap = make_sim(tiny_topo, CountingPolicy(), epochs=4).run()
        costly = make_sim(tiny_topo, ExpensivePolicy(), epochs=4).run()
        assert costly.runtime_s > cheap.runtime_s + 1.0


class TestPolicyActionSummary:
    def test_merge(self):
        a = PolicyActionSummary(migrated_4k=1, bytes_migrated=4096, compute_s=0.1)
        b = PolicyActionSummary(migrated_2m=2, splits_2m=3, notes=["x"])
        a.merge(b)
        assert a.migrated_4k == 1
        assert a.migrated_2m == 2
        assert a.splits_2m == 3
        assert a.notes == ["x"]


class TestRunMetrics:
    def test_improvement_math(self):
        fast = RunMetrics(
            runtime_s=5.0, lar_pct=50, imbalance_pct=0, pct_l2_walk=0,
            fault_time_total_s=0, max_fault_pct=0, tlb_misses=0, dram_requests=0,
        )
        slow = RunMetrics(
            runtime_s=10.0, lar_pct=50, imbalance_pct=0, pct_l2_walk=0,
            fault_time_total_s=0, max_fault_pct=0, tlb_misses=0, dram_requests=0,
        )
        assert fast.improvement_over(slow) == pytest.approx(100.0)
        assert slow.improvement_over(fast) == pytest.approx(-50.0)

    def test_zero_runtime_rejected(self):
        broken = RunMetrics(
            runtime_s=0.0, lar_pct=0, imbalance_pct=0, pct_l2_walk=0,
            fault_time_total_s=0, max_fault_pct=0, tlb_misses=0, dram_requests=0,
        )
        with pytest.raises(SimulationError):
            broken.improvement_over(broken)


class TestSimulationResult:
    def test_metrics_aggregate_actions(self, tiny_topo):
        result = SimulationResult(
            workload="w",
            machine="m",
            policy="p",
            runtime_s=1.0,
            epoch_times_s=[1.0],
            bank=CounterBank(2, 4),
            hot_stats=None,
            action_log=[
                (0.5, PolicyActionSummary(migrated_4k=3, splits_2m=1)),
                (1.0, PolicyActionSummary(migrated_2m=2)),
            ],
            final_page_counts={},
        )
        m = result.metrics()
        assert m.pages_migrated_4k == 3
        assert m.pages_migrated_2m == 2
        assert m.pages_split_2m == 1

    def test_improvement_reads_only_the_runtimes(self):
        # Every figure cell divides two runtimes; building both runs'
        # full metrics (LAR, imbalance, action sums) for it is waste.
        class UnreadableBank:
            def __getattr__(self, name):
                raise AssertionError(f"counter bank read: {name}")

        def result(runtime_s):
            return SimulationResult(
                workload="w",
                machine="m",
                policy="p",
                runtime_s=runtime_s,
                epoch_times_s=[runtime_s],
                bank=UnreadableBank(),
                hot_stats=None,
                action_log=[(0.5, PolicyActionSummary(migrated_4k=3))],
                final_page_counts={},
            )

        assert result(5.0).improvement_over(result(10.0)) == pytest.approx(100.0)
        assert result(10.0).improvement_over(result(5.0)) == pytest.approx(-50.0)
        with pytest.raises(SimulationError):
            result(0.0).improvement_over(result(5.0))

    def test_improvement_matches_the_metrics_formula(self, tiny_topo):
        fast = make_sim(tiny_topo, LinuxPolicy(True)).run()
        slow = make_sim(tiny_topo, LinuxPolicy(False)).run()
        assert fast.improvement_over(slow) == fast.metrics().improvement_over(
            slow.metrics()
        )

    def test_describe(self, tiny_topo):
        result = make_sim(tiny_topo, LinuxPolicy(False)).run()
        text = result.describe()
        assert "toy" in text
        assert "linux-4k" in text


class TestStaticInterleave:
    def test_interleave_balances_allocation(self, tiny_topo):
        from repro.sim.policy import LinuxPolicy

        sim = make_sim(tiny_topo, LinuxPolicy(thp=True, interleave=True))
        result = sim.run()
        assert result.policy == "interleave-thp"
        assert result.bank.imbalance() < 10.0

    def test_interleave_4k_name(self):
        from repro.sim.policy import LinuxPolicy

        assert LinuxPolicy(thp=False, interleave=True).name == "interleave-4k"

    def test_first_touch_differs_from_interleave(self, tiny_topo):
        from repro.sim.policy import LinuxPolicy

        ft = make_sim(tiny_topo, LinuxPolicy(thp=True)).run()
        il = make_sim(tiny_topo, LinuxPolicy(thp=True, interleave=True)).run()
        # A shared region first-touched by hashed stripes vs round-robin
        # chunks gives different traffic matrices.
        assert ft.bank.lar() != il.bank.lar()


class TestSteadyMetrics:
    def test_steady_bank_skips_warmup(self, tiny_topo):
        result = make_sim(tiny_topo, LinuxPolicy(False), epochs=10).run()
        steady = result.steady_bank(0.5)
        assert len(steady.epochs) == 5

    def test_invalid_fraction(self, tiny_topo):
        result = make_sim(tiny_topo, LinuxPolicy(False)).run()
        with pytest.raises(SimulationError):
            result.steady_bank(1.0)

    def test_steady_values_bounded(self, tiny_topo):
        result = make_sim(tiny_topo, LinuxPolicy(False)).run()
        assert 0 <= result.steady_lar() <= 100
        assert result.steady_imbalance() >= 0
