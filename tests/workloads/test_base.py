"""Tests for workload abstractions (cost profile, instance, factory)."""

import numpy as np
import pytest

from repro._util import rng_for
from repro.errors import ConfigurationError
from repro.workloads.base import CostProfile, FaultBatch, TlbGroup, Workload, WorkloadInstance
from repro.workloads.regions import PartitionedRegion, SharedRegion
from tests.per_thread_streams import shipped_stream

MIB = 1 << 20


def stream_rng(inst, thread, epoch):
    """A seeded generator for one thread-epoch of ``inst``."""
    return rng_for(inst.seed, inst.name, "stream", thread, epoch)


def two_regions():
    return [
        PartitionedRegion("p", 2 * MIB, 0.6),
        SharedRegion("s", 4 * MIB, 0.4),
    ]


def make_instance(machine, **kwargs):
    cost = CostProfile(cpu_seconds=0.1, mem_accesses=1e6, dram_accesses=1e5)
    return WorkloadInstance("t", machine, two_regions(), cost, total_epochs=4, **kwargs)


class TestCostProfile:
    def test_valid(self):
        CostProfile(cpu_seconds=0.1, mem_accesses=10, dram_accesses=5)

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            CostProfile(cpu_seconds=-1, mem_accesses=10, dram_accesses=5)

    def test_dram_exceeds_mem_rejected(self):
        with pytest.raises(ConfigurationError):
            CostProfile(cpu_seconds=0.1, mem_accesses=5, dram_accesses=10)

    def test_bad_mlp_rejected(self):
        with pytest.raises(ConfigurationError):
            CostProfile(cpu_seconds=0.1, mem_accesses=10, dram_accesses=5, mlp=0)


class TestTlbGroup:
    def test_valid(self):
        TlbGroup(0, 100, 0.5, 100, 1, 1)

    def test_bad_extent(self):
        with pytest.raises(ConfigurationError):
            TlbGroup(100, 0, 0.5, 100, 1, 1)

    def test_bad_run_length(self):
        with pytest.raises(ConfigurationError):
            TlbGroup(0, 100, 0.5, 100, 1, 1, run_length=0.5)


class TestFaultBatch:
    def test_merge_and_totals(self):
        a = FaultBatch.zeros(4)
        b = FaultBatch.zeros(4)
        b.faults_4k[1] = 10
        b.faults_2m[2] = 2
        a.merge(b)
        assert a.total == 12
        assert a.faulting_threads() == 2


class TestWorkloadInstance:
    def test_regions_laid_out_disjoint(self, tiny_topo):
        inst = make_instance(tiny_topo)
        r0, r1 = inst.regions
        assert r0.hi <= r1.lo
        assert inst.n_granules >= r1.hi

    def test_regions_chunk_aligned(self, tiny_topo):
        inst = make_instance(tiny_topo)
        for region in inst.regions:
            assert region.lo % 512 == 0

    def test_shares_normalised(self, tiny_topo):
        inst = make_instance(tiny_topo)
        assert sum(inst._norm_shares) == pytest.approx(1.0)

    def test_epoch_stream_length(self, tiny_topo):
        inst = make_instance(tiny_topo)
        g, w = shipped_stream(inst, 0, 0, np.random.default_rng(0), 1000)
        assert len(g) == len(w) == 1000
        assert np.all(g >= 0)
        assert np.all(g < inst.n_granules)

    def test_epoch_stream_zero_length(self, tiny_topo):
        inst = make_instance(tiny_topo)
        g, _ = shipped_stream(inst, 0, 0, np.random.default_rng(0), 0)
        assert len(g) == 0

    def test_epoch_stream_bad_thread(self, tiny_topo):
        inst = make_instance(tiny_topo)
        with pytest.raises(ConfigurationError):
            shipped_stream(inst, 99, 0, np.random.default_rng(0), 10)

    def test_stream_rng_deterministic(self, tiny_topo):
        inst = make_instance(tiny_topo)
        a, wa = shipped_stream(inst, 0, 0, stream_rng(inst, 0, 0), 100)
        b, wb = shipped_stream(inst, 0, 0, stream_rng(inst, 0, 0), 100)
        assert np.array_equal(a, b)
        assert np.array_equal(wa, wb)

    def test_stream_rng_varies_by_epoch(self, tiny_topo):
        inst = make_instance(tiny_topo)
        a, _ = shipped_stream(inst, 0, 0, stream_rng(inst, 0, 0), 100)
        b, _ = shipped_stream(inst, 0, 1, stream_rng(inst, 0, 1), 100)
        assert not np.array_equal(a, b)

    def test_tlb_groups_weights_normalised(self, tiny_topo):
        inst = make_instance(tiny_topo)
        groups = inst.tlb_groups(0, 0)
        assert sum(g.weight for g in groups) == pytest.approx(1.0)

    def test_with_1g_backing_rebinds(self, tiny_topo):
        inst = make_instance(tiny_topo)
        inst_1g = inst.with_1g_backing()
        assert inst_1g.backing_1g
        assert inst_1g.n_granules % (1 << 18) == 0
        for region in inst_1g.regions:
            assert region.lo % (1 << 18) == 0

    def test_invalid_epochs(self, tiny_topo):
        cost = CostProfile(cpu_seconds=0.1, mem_accesses=1, dram_accesses=1)
        with pytest.raises(ConfigurationError):
            WorkloadInstance("t", tiny_topo, two_regions(), cost, total_epochs=0)

    def test_invalid_thread_count(self, tiny_topo):
        cost = CostProfile(cpu_seconds=0.1, mem_accesses=1, dram_accesses=1)
        with pytest.raises(ConfigurationError):
            WorkloadInstance(
                "t", tiny_topo, two_regions(), cost, total_epochs=1, n_threads=99
            )

    def test_no_regions_rejected(self, tiny_topo):
        cost = CostProfile(cpu_seconds=0.1, mem_accesses=1, dram_accesses=1)
        with pytest.raises(ConfigurationError):
            WorkloadInstance("t", tiny_topo, [], cost, total_epochs=1)


class TestWorkloadFactory:
    def test_instantiate(self, tiny_topo):
        wl = Workload("t", "test", lambda m, s, seed: make_instance(m))
        inst = wl.instantiate(tiny_topo)
        assert inst.name == "t"

    def test_bad_scale(self, tiny_topo):
        wl = Workload("t", "test", lambda m, s, seed: make_instance(m))
        with pytest.raises(ConfigurationError):
            wl.instantiate(tiny_topo, scale=0.0)
        with pytest.raises(ConfigurationError):
            wl.instantiate(tiny_topo, scale=2.0)
