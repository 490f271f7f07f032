"""Tests for the region primitives (placement, sampling, TLB geometry)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.invariants import check_address_space
from repro.errors import ConfigurationError, MappingError
from repro.vm.address_space import AddressSpace
from repro.vm.frame_allocator import PhysicalMemory
from repro.vm.layout import GRANULES_PER_1G, GRANULES_PER_2M
from repro.workloads.base import CostProfile, WorkloadInstance
from repro.workloads.regions import (
    HotRegion,
    PartitionedRegion,
    SharedRegion,
    StreamRegion,
    _hash_owner,
)

GIB = 1 << 30
MIB = 1 << 20


def make_instance(regions, machine, total_epochs=4, **kwargs):
    cost = CostProfile(cpu_seconds=0.1, mem_accesses=1e6, dram_accesses=1e5)
    return WorkloadInstance(
        "test", machine, regions, cost, total_epochs=total_epochs, **kwargs
    )


def make_asp(instance):
    phys = PhysicalMemory.for_topology(instance.machine)
    return AddressSpace(instance.n_granules, phys)


def sample(region, thread, n, epoch, rng):
    """``n`` accesses of a thread-epoch drawn by ``Region.sample_into``."""
    out = np.empty(n, dtype=np.int64)
    return out[: region.sample_into(thread, n, epoch, rng, out)]


def premap_all(instance, asp, thp):
    nodes = instance.machine.core_to_node[: instance.n_threads].astype(np.int64)
    batches = []
    for epoch in range(instance.total_epochs):
        batches.append(instance.premap_epoch(epoch, asp, nodes, thp))
    return batches


class TestPartitionedRegion:
    def test_threads_sample_own_blocks(self, tiny_topo):
        region = PartitionedRegion("p", 4 * MIB, 1.0, block_bytes=64 * 1024)
        inst = make_instance([region], tiny_topo)
        rng = np.random.default_rng(0)
        for t in range(inst.n_threads):
            g = sample(region, t, 500, 0, rng)
            owners = region.owner_of_local(g - region.lo)
            assert np.all(owners == t)

    def test_neighbor_share_hits_boundaries(self, tiny_topo):
        region = PartitionedRegion(
            "p", 4 * MIB, 1.0, block_bytes=64 * 1024, neighbor_share=0.5
        )
        inst = make_instance([region], tiny_topo)
        rng = np.random.default_rng(0)
        g = sample(region, 0, 2000, 0, rng)
        owners = region.owner_of_local(g - region.lo)
        assert set(np.unique(owners)) > {0}

    def test_contiguous_partitions_are_slices(self, tiny_topo):
        region = PartitionedRegion("p", 4 * MIB, 1.0, contiguous=True)
        inst = make_instance([region], tiny_topo)
        per = region._per_thread_granules
        owners = region.owner_of_local(np.arange(4 * per))
        assert list(np.unique(owners[:per])) == [0]

    def test_interleaved_chunk_owners_cycle(self, tiny_topo):
        # With small blocks and the per-chunk shift, the first-touch
        # owners of consecutive chunks should not degenerate to a
        # single thread.
        region = PartitionedRegion("p", 16 * MIB, 1.0, block_bytes=64 * 1024)
        make_instance([region], tiny_topo)
        chunk_starts = np.arange(0, region.n_granules, GRANULES_PER_2M)
        owners = region.owner_of_local(chunk_starts)
        assert len(np.unique(owners)) > 1

    def test_premap_4k_places_on_owner_nodes(self, tiny_topo):
        region = PartitionedRegion("p", 4 * MIB, 1.0, block_bytes=64 * 1024)
        inst = make_instance([region], tiny_topo)
        asp = make_asp(inst)
        batches = premap_all(inst, asp, thp=False)
        assert batches[0].total > 0
        # Thread 0 (node 0) samples must be local after first touch.
        g = sample(region, 0, 200, 0, np.random.default_rng(1))
        assert np.all(asp.home_nodes(g) == 0)

    def test_premap_thp_whole_chunks(self, tiny_topo):
        region = PartitionedRegion("p", 4 * MIB, 1.0)
        inst = make_instance([region], tiny_topo)
        asp = make_asp(inst)
        batches = premap_all(inst, asp, thp=True)
        assert batches[0].faults_2m.sum() == asp.page_counts()[512 * 4096]

    def test_false_sharing_under_thp(self, tiny_topo):
        # Small blocks: a 2MB chunk contains several threads' data, so
        # some threads' accesses become remote under THP.
        region = PartitionedRegion("p", 8 * MIB, 1.0, block_bytes=64 * 1024)
        inst = make_instance([region], tiny_topo)
        asp = make_asp(inst)
        premap_all(inst, asp, thp=True)
        rng = np.random.default_rng(2)
        g = sample(region, 0, 2000, 0, rng)
        homes = asp.home_nodes(g)
        assert 0 < np.count_nonzero(homes != 0) < 2000

    def test_tlb_groups_weights_sum_to_share(self, tiny_topo):
        region = PartitionedRegion("p", 4 * MIB, 1.0, neighbor_share=0.2)
        make_instance([region], tiny_topo)
        groups = region.tlb_groups(0, 0, 0.5)
        assert sum(g.weight for g in groups) == pytest.approx(0.5)

    def test_invalid_neighbor_share(self):
        with pytest.raises(ConfigurationError):
            PartitionedRegion("p", MIB, 1.0, neighbor_share=1.0)

    def test_invalid_boundary_fraction(self):
        with pytest.raises(ConfigurationError):
            PartitionedRegion("p", MIB, 1.0, boundary_fraction=0.0)


class TestSharedRegion:
    def test_uniform_sampling_in_range(self, tiny_topo):
        region = SharedRegion("s", 8 * MIB, 1.0)
        make_instance([region], tiny_topo)
        g = sample(region, 0, 1000, 0, np.random.default_rng(0))
        assert np.all(g >= region.lo)
        assert np.all(g < region.lo + region._logical)

    def test_zipf_skews_popularity(self, tiny_topo):
        region = SharedRegion("s", 8 * MIB, 1.0, zipf_s=1.2, clustered=True)
        make_instance([region], tiny_topo)
        g = sample(region, 0, 20_000, 0, np.random.default_rng(0))
        local = g - region.lo
        # Clustered zipf: the first granules absorb most accesses.
        hot_fraction = np.count_nonzero(local < 64) / len(local)
        assert hot_fraction > 0.3

    def test_unclustered_spreads_hot_ranks(self, tiny_topo):
        region = SharedRegion("s", 8 * MIB, 1.0, zipf_s=1.2, clustered=False)
        make_instance([region], tiny_topo)
        g = sample(region, 0, 20_000, 0, np.random.default_rng(0))
        local = g - region.lo
        hot_fraction = np.count_nonzero(local < 64) / len(local)
        assert hot_fraction < 0.15

    def test_master_init_places_on_node0(self, tiny_topo):
        region = SharedRegion("s", 8 * MIB, 1.0, master_init=True)
        inst = make_instance([region], tiny_topo)
        asp = make_asp(inst)
        premap_all(inst, asp, thp=False)
        g = sample(region, 1, 500, 0, np.random.default_rng(0))
        assert np.all(asp.home_nodes(g) == 0)

    def test_hashed_striping_spreads_nodes(self, tiny_topo):
        region = SharedRegion("s", 16 * MIB, 1.0, stripe_bytes=64 * 1024)
        inst = make_instance([region], tiny_topo)
        asp = make_asp(inst)
        premap_all(inst, asp, thp=False)
        g = sample(region, 0, 4000, 0, np.random.default_rng(0))
        homes = asp.home_nodes(g)
        counts = np.bincount(homes, minlength=2)
        assert counts.min() > 0.3 * counts.max()

    def test_private_consumers_partition_ranks(self, tiny_topo):
        region = SharedRegion("s", 8 * MIB, 1.0, private_consumers=True)
        make_instance([region], tiny_topo)
        g0 = sample(region, 0, 3000, 0, np.random.default_rng(0))
        g1 = sample(region, 1, 3000, 0, np.random.default_rng(1))
        assert not (set(g0.tolist()) & set(g1.tolist()))

    def test_chunk_header_bias_moves_chunks_to_master(self, tiny_topo):
        region = SharedRegion(
            "s", 32 * MIB, 1.0, stripe_bytes=64 * 1024, chunk_header_bias=1.0
        )
        inst = make_instance([region], tiny_topo)
        asp = make_asp(inst)
        premap_all(inst, asp, thp=True)
        chunk_lo = region.lo // GRANULES_PER_2M
        chunk_hi = region.hi // GRANULES_PER_2M
        nodes = asp.node2m[chunk_lo:chunk_hi]
        # Every chunk follows its master-touched header to node 0.
        assert np.all(nodes == 0)

    def test_chunk_header_bias_harmless_at_4k(self, tiny_topo):
        region = SharedRegion(
            "s", 32 * MIB, 1.0, stripe_bytes=64 * 1024, chunk_header_bias=1.0
        )
        inst = make_instance([region], tiny_topo)
        asp = make_asp(inst)
        premap_all(inst, asp, thp=False)
        g = sample(region, 0, 5000, 0, np.random.default_rng(0))
        homes = asp.home_nodes(g)
        counts = np.bincount(homes, minlength=2)
        assert counts.min() > 0.25 * counts.max()

    @pytest.mark.parametrize("salt", [0, 101, 777, (1 << 63) + 5, (1 << 64) - 1, -1])
    def test_owner_hash_salt_wraps_at_64_bits(self, salt):
        """Region workloads salt the owner hash with ``seed + 101`` (and
        ``seed + 777``), so any integer seed must hash: a salt and the
        same salt plus 2**64 pick the same owners."""
        stripes = np.arange(4096, dtype=np.int64)
        owners = _hash_owner(stripes, 7, salt)
        for other in (salt + (1 << 64), salt - (1 << 64), salt + (5 << 64)):
            np.testing.assert_array_equal(_hash_owner(stripes, 7, other), owners)
        assert owners.min() >= 0 and owners.max() < 7

    def test_invalid_zipf(self):
        with pytest.raises(ConfigurationError):
            SharedRegion("s", MIB, 1.0, zipf_s=-1)

    def test_invalid_bias(self):
        with pytest.raises(ConfigurationError):
            SharedRegion("s", MIB, 1.0, chunk_header_bias=2.0)

    def test_tlb_groups_cover_share(self, tiny_topo):
        region = SharedRegion("s", 8 * MIB, 1.0, zipf_s=0.7)
        make_instance([region], tiny_topo)
        groups = region.tlb_groups(0, 0, 1.0)
        assert sum(g.weight for g in groups) == pytest.approx(1.0)
        assert all(g.distinct_2m <= g.distinct_4k for g in groups)


class TestHotRegion:
    def test_small_and_uniform(self, tiny_topo):
        region = HotRegion("h", 6 * MIB, 0.3)
        make_instance([region], tiny_topo)
        assert region.zipf_s == 0.0
        assert region.clustered
        g = sample(region, 0, 5000, 0, np.random.default_rng(0))
        # Uniform across exactly 3 chunks.
        chunks = np.unique((g - region.lo) // GRANULES_PER_2M)
        assert len(chunks) == 3


class TestStreamRegion:
    def test_growth_schedule(self, tiny_topo):
        region = StreamRegion("st", 8 * MIB, 1.0, grow_epochs=4)
        make_instance([region], tiny_topo, total_epochs=4)
        grown = [region.grown_granules(e) for e in range(4)]
        assert grown[-1] == region._per_g
        assert all(b >= a for a, b in zip(grown, grown[1:]))

    def test_growth_premaps_incrementally(self, tiny_topo):
        region = StreamRegion("st", 8 * MIB, 1.0, grow_epochs=4)
        inst = make_instance([region], tiny_topo, total_epochs=4)
        asp = make_asp(inst)
        batches = premap_all(inst, asp, thp=False)
        assert all(b.total > 0 for b in batches)

    def test_no_growth_maps_at_epoch0(self, tiny_topo):
        region = StreamRegion("st", 4 * MIB, 1.0, grow_epochs=0)
        inst = make_instance([region], tiny_topo, total_epochs=3)
        asp = make_asp(inst)
        batches = premap_all(inst, asp, thp=True)
        assert batches[0].total > 0
        assert batches[1].total == 0

    def test_samples_stay_in_grown_extent(self, tiny_topo):
        region = StreamRegion("st", 8 * MIB, 1.0, grow_epochs=4)
        inst = make_instance([region], tiny_topo, total_epochs=4)
        asp = make_asp(inst)
        nodes = inst.machine.core_to_node[: inst.n_threads].astype(np.int64)
        inst.premap_epoch(0, asp, nodes, False)
        g = sample(region, 0, 1000, 0, np.random.default_rng(0))
        assert np.all(asp.home_nodes(g) >= 0)

    def test_recency_concentrates_on_window(self, tiny_topo):
        region = StreamRegion(
            "st", 8 * MIB, 1.0, grow_epochs=0, window_bytes=MIB, recency=1.0
        )
        make_instance([region], tiny_topo, total_epochs=2)
        g = sample(region, 0, 1000, 1, np.random.default_rng(0))
        span = g.max() - g.min()
        assert span <= region.window_granules

    def test_invalid_params(self):
        with pytest.raises(ConfigurationError):
            StreamRegion("st", MIB, 1.0, grow_epochs=-1)
        with pytest.raises(ConfigurationError):
            StreamRegion("st", MIB, 1.0, recency=1.5)


class TestPremapPaths:
    """``Region._premap_range``: the one premap path, 4KB, THP or 1GB."""

    @staticmethod
    def one_slice_per_thread(machine):
        # Rebound with 1GB alignment, each thread's slice is one 1GB page.
        region = StreamRegion("st", 4 * MIB, 1.0)
        inst = make_instance([region], machine).with_1g_backing()
        return inst, region, make_asp(inst)

    @pytest.mark.parametrize(
        "interleave, placed", [(False, [0, 0, 1, 1]), (True, [0, 1, 0, 1])]
    )
    def test_1g_backing_maps_whole_pages(self, tiny_topo, interleave, placed):
        """Each 1GB page lands on its first-touch owner's node, or
        round-robin under interleave; either way the owner takes the
        one 1GB fault."""
        inst, region, asp = self.one_slice_per_thread(tiny_topo)
        nodes = tiny_topo.core_to_node[: inst.n_threads].astype(np.int64)
        batch = inst.premap_epoch(0, asp, nodes, True, interleave)
        assert batch.faults_1g.tolist() == [1, 1, 1, 1]
        assert batch.faults_2m.sum() == batch.faults_4k.sum() == 0
        gchunks = np.arange(region.lo, region.hi, GRANULES_PER_1G) // GRANULES_PER_1G
        assert asp.giga[gchunks].all()
        assert asp.node1g[gchunks].tolist() == placed
        check_address_space(asp)

    def test_1g_growth_must_come_in_1g_units(self, tiny_topo):
        inst, region, asp = self.one_slice_per_thread(tiny_topo)
        nodes = tiny_topo.core_to_node[: inst.n_threads].astype(np.int64)
        with pytest.raises(MappingError, match="1GB units"):
            region._premap_range(asp, nodes, True, 0, GRANULES_PER_2M)
        assert asp.mapped_bytes() == 0

    def test_unaligned_thp_premap_rejected(self, tiny_topo):
        region = StreamRegion("st", 4 * MIB, 1.0)
        inst = make_instance([region], tiny_topo)
        asp = make_asp(inst)
        nodes = tiny_topo.core_to_node[: inst.n_threads].astype(np.int64)
        with pytest.raises(MappingError, match="2MB-aligned"):
            region._premap_range(asp, nodes, True, 0, GRANULES_PER_2M // 2)
        assert asp.mapped_bytes() == 0


class TestRegionProperties:
    @given(
        seed=st.integers(0, 100),
        n=st.integers(1, 2000),
        epoch=st.integers(0, 3),
    )
    @settings(max_examples=30, deadline=None)
    def test_samples_always_in_extent(self, seed, n, epoch):
        import tests.conftest as cf
        import numpy as _np
        from repro.hardware.topology import NumaNode, NumaTopology

        tiny_topo = NumaTopology(
            "tiny",
            [NumaNode(i, 2, 1 << 31) for i in range(2)],
            _np.array([[0, 1], [1, 0]]),
            2e9,
        )
        regions = [
            PartitionedRegion("p", 2 * MIB, 0.5, neighbor_share=0.1),
            SharedRegion("s", 4 * MIB, 0.3, zipf_s=0.8),
            StreamRegion("st", 2 * MIB, 0.2, grow_epochs=3),
        ]
        inst = make_instance(regions, tiny_topo, total_epochs=4)
        rng = np.random.default_rng(seed)
        for region in regions:
            g = sample(region, 0, n, epoch, rng)
            assert np.all(g >= region.lo)
            assert np.all(g < region.hi)
