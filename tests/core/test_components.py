"""Tests for the conservative and reactive components and Algorithm 1."""

import numpy as np
import pytest

from repro.hardware.counters import CounterBank, EpochCounters
from repro.hardware.ibs import IbsSamples
from repro.core.carrefour_lp import CarrefourLpPolicy
from repro.core.conservative import ConservativeComponent, ConservativeConfig
from repro.core.reactive import ReactiveComponent, ReactiveConfig
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation, apply_decisions
from repro.sim.policy import LinuxPolicy
from repro.vm.layout import GRANULES_PER_2M, PageSize
from repro.workloads.base import CostProfile, WorkloadInstance
from repro.workloads.regions import SharedRegion

MIB = 1 << 20


def make_sim(topo, thp=True, epochs=2):
    cost = CostProfile(cpu_seconds=0.05, mem_accesses=1e6, dram_accesses=1e5)
    inst = WorkloadInstance(
        "toy", topo, [SharedRegion("s", 8 * MIB, 1.0)], cost, total_epochs=epochs
    )
    sim = Simulation(topo, inst, LinuxPolicy(thp), SimConfig(stream_length=256))
    # Materialise the address space so components have pages to act on.
    nodes = topo.core_to_node[: inst.n_threads].astype(np.int64)
    inst.premap_epoch(0, sim.asp, nodes, thp)
    return sim


def window(n_nodes, n_cores, walk_l2=0.0, data=100.0, fault_core_s=0.0, duration=1.0):
    bank = CounterBank(n_nodes, n_cores)
    fault = np.zeros(n_cores)
    fault[0] = fault_core_s
    bank.add(
        EpochCounters(
            epoch=0,
            duration_s=duration,
            traffic=np.zeros((n_nodes, n_nodes)),
            walk_l2_misses=walk_l2,
            l2_data_misses=data,
            fault_time_per_core_s=fault,
        )
    )
    return bank


def samples_for(sim, granules, nodes, threads=None):
    n = len(granules)
    return IbsSamples(
        granule=np.asarray(granules, dtype=np.int64),
        accessing_node=np.asarray(nodes, dtype=np.int8),
        home_node=sim.asp.home_nodes(np.asarray(granules, dtype=np.int64)),
        thread=np.asarray(threads if threads is not None else nodes, dtype=np.int16),
        from_dram=np.ones(n, dtype=bool),
    )


class TestConservative:
    def test_tlb_pressure_enables_both(self, tiny_topo):
        sim = make_sim(tiny_topo)
        sim.thp.disable_alloc()
        sim.thp.disable_promotion()
        comp = ConservativeComponent()
        _, decision = apply_decisions(sim, comp.decide(sim, window(2, 4, walk_l2=10.0, data=90.0)))
        assert decision.enabled_alloc
        assert decision.enabled_promotion
        assert sim.thp.alloc_enabled
        assert sim.thp.promotion_enabled

    def test_fault_pressure_enables_alloc_only(self, tiny_topo):
        sim = make_sim(tiny_topo)
        sim.thp.disable_alloc()
        sim.thp.disable_promotion()
        comp = ConservativeComponent()
        _, decision = apply_decisions(sim, comp.decide(sim, window(2, 4, fault_core_s=0.2)))
        assert decision.enabled_alloc
        assert not decision.enabled_promotion
        assert sim.thp.alloc_enabled
        assert not sim.thp.promotion_enabled

    def test_no_pressure_leaves_disabled(self, tiny_topo):
        sim = make_sim(tiny_topo)
        sim.thp.disable_alloc()
        comp = ConservativeComponent()
        _, decision = apply_decisions(sim, comp.decide(sim, window(2, 4, walk_l2=1.0, data=99.0)))
        assert not decision.enabled_alloc
        assert not sim.thp.alloc_enabled

    def test_custom_thresholds(self, tiny_topo):
        sim = make_sim(tiny_topo)
        sim.thp.disable_alloc()
        comp = ConservativeComponent(ConservativeConfig(walk_l2_threshold_pct=0.5))
        _, decision = apply_decisions(sim, comp.decide(sim, window(2, 4, walk_l2=1.0, data=99.0)))
        assert decision.enabled_alloc


class TestReactive:
    def test_no_samples_is_noop(self, tiny_topo):
        sim = make_sim(tiny_topo)
        comp = ReactiveComponent()
        _, decision = apply_decisions(sim, comp.decide(sim, IbsSamples.empty()))
        assert decision.estimate is None
        assert not decision.split_pages

    def test_false_sharing_triggers_split(self, tiny_topo):
        sim = make_sim(tiny_topo)
        # Granule-private, page-shared samples: only splitting helps.
        region = sim.instance.regions[0]
        granules, nodes = [], []
        for chunk in range(4):
            base = region.lo + chunk * GRANULES_PER_2M
            for rep in range(3):
                granules += [base + 1, base + 100]
                nodes += [0, 1]
        comp = ReactiveComponent()
        summary, decision = apply_decisions(
            sim, comp.decide(sim, samples_for(sim, granules, nodes))
        )
        assert decision.split_pages
        assert decision.shared_pages_split > 0
        assert summary.splits_2m > 0
        assert not sim.thp.alloc_enabled
        assert not sim.thp.promotion_enabled

    def test_hot_page_split_and_interleaved(self, quad_topo):
        sim = make_sim(quad_topo)
        region = sim.instance.regions[0]
        # One page absorbs most samples from every node: hot.
        granules = [region.lo] * 40 + [region.lo + GRANULES_PER_2M, region.lo + 2 * GRANULES_PER_2M]
        nodes = ([0, 1, 2, 3] * 10) + [0, 0]
        comp = ReactiveComponent()
        summary, decision = apply_decisions(
            sim, comp.decide(sim, samples_for(sim, granules, nodes))
        )
        assert decision.hot_pages_split + decision.shared_pages_split > 0
        # The hot page's granules are spread across nodes afterwards.
        span = np.arange(region.lo, region.lo + GRANULES_PER_2M)
        homes = sim.asp.home_nodes(span)
        assert len(np.unique(homes)) == quad_topo.n_nodes

    def test_interleave_start_node_spans_every_node(self, quad_topo):
        # Two local samples on one 2MB page make it hot.  The round-robin
        # starts at a node drawn over the machine's four nodes, so the
        # page's first 4KB page lands on every node across seeds, even
        # though there are fewer samples than nodes.
        starts = set()
        for seed in range(24):
            sim = make_sim(quad_topo)
            base = sim.instance.regions[0].lo
            home = int(sim.asp.home_nodes(np.array([base]))[0])
            comp = ReactiveComponent(seed=seed)
            _, decision = apply_decisions(
                sim, comp.decide(sim, samples_for(sim, [base, base + 1], [home] * 2))
            )
            assert decision.hot_pages_split == 1
            starts.add(int(sim.asp.home_nodes(np.array([base]))[0]))
        assert starts == set(range(quad_topo.n_nodes))

    def test_migration_keeps_locality_no_split(self, tiny_topo):
        sim = make_sim(tiny_topo)
        region = sim.instance.regions[0]
        # Every page single-node but remote: Carrefour alone fixes it,
        # so the reactive component must not split.
        granules, nodes = [], []
        for chunk in range(4):
            base = region.lo + chunk * GRANULES_PER_2M
            granules += [base, base + 1]
            nodes += [1, 1]
        comp = ReactiveComponent()
        _, decision = apply_decisions(
            sim, comp.decide(sim, samples_for(sim, granules, nodes))
        )
        assert not decision.split_pages
        assert decision.shared_pages_split == 0

    def test_cooldown_suppresses_resplit(self, tiny_topo):
        sim = make_sim(tiny_topo)
        region = sim.instance.regions[0]
        granules, nodes = [], []
        for chunk in range(4):
            base = region.lo + chunk * GRANULES_PER_2M
            for rep in range(3):
                granules += [base + 1, base + 100]
                nodes += [0, 1]
        comp = ReactiveComponent(ReactiveConfig(split_cooldown_intervals=2))
        s = samples_for(sim, granules, nodes)
        _, d1 = apply_decisions(sim, comp.decide(sim, s))
        assert d1.shared_pages_split > 0
        _, d2 = apply_decisions(sim, comp.decide(sim, samples_for(sim, granules, nodes)))
        assert "split cooldown" in d2.notes

    def test_misprediction_backoff(self, tiny_topo):
        sim = make_sim(tiny_topo)
        region = sim.instance.regions[0]
        granules, nodes = [], []
        for chunk in range(4):
            base = region.lo + chunk * GRANULES_PER_2M
            for rep in range(3):
                granules += [base + 1, base + 100]
                nodes += [0, 1]
        comp = ReactiveComponent(
            ReactiveConfig(split_cooldown_intervals=1, misprediction_backoff_intervals=3)
        )
        apply_decisions(sim, comp.decide(sim, samples_for(sim, granules, nodes)))
        # Next interval: same (unimproved) LAR -> validation fails.
        _, d2 = apply_decisions(sim, comp.decide(sim, samples_for(sim, granules, nodes)))
        assert any("misprediction" in note for note in d2.notes)
        assert not comp.split_pages
        _, d3 = apply_decisions(sim, comp.decide(sim, samples_for(sim, granules, nodes)))
        assert "split backoff" in d3.notes


class TestCarrefourLp:
    def test_policy_names(self):
        assert CarrefourLpPolicy().name == "carrefour-lp"
        assert CarrefourLpPolicy(conservative=False).name == "reactive-only"
        assert CarrefourLpPolicy(reactive=False).name == "conservative-only"

    def test_setup_starts_with_thp_when_reactive(self, tiny_topo):
        sim = make_sim(tiny_topo)
        CarrefourLpPolicy().setup(sim)
        assert sim.thp.alloc_enabled

    def test_conservative_only_starts_at_4k(self, tiny_topo):
        sim = make_sim(tiny_topo)
        CarrefourLpPolicy(reactive=False).setup(sim)
        assert not sim.thp.alloc_enabled

    def test_interval_log_records(self, tiny_topo):
        sim = make_sim(tiny_topo)
        policy = CarrefourLpPolicy()
        policy.setup(sim)
        apply_decisions(sim, policy.decide(sim, IbsSamples.empty(), window(2, 4)))
        assert len(policy.interval_log) == 1
        log = policy.interval_log[0]
        assert log.conservative is not None
        assert log.reactive is not None

    def test_carrefour_gated_by_thresholds(self, tiny_topo):
        sim = make_sim(tiny_topo)
        policy = CarrefourLpPolicy()
        policy.setup(sim)
        # Healthy window (high LAR via empty traffic -> LAR 100, low maptu).
        summary, _ = apply_decisions(
            sim, policy.decide(sim, IbsSamples.empty(), window(2, 4, data=0.0))
        )
        assert not policy.interval_log[-1].carrefour_engaged
        assert any("disabled" in note for note in summary.notes)
