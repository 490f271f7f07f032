"""Tests for the address-space mutation version counter and home-map cache.

The engine's version-keyed caches (backing fractions, per-thread TLB
results, the resolved home map) are only sound if *every* mutating
operation bumps :attr:`AddressSpace.version` and no read ever does.
"""

import numpy as np
import pytest

from repro.vm.address_space import AddressSpace, BACKING_ID_2M_OFFSET
from repro.vm.frame_allocator import PhysicalMemory
from repro.vm.layout import GRANULES_PER_1G, GRANULES_PER_2M

GIB = 1 << 30


def make_asp(n_chunks=8, n_nodes=2, dram=GIB):
    phys = PhysicalMemory([dram] * n_nodes)
    return AddressSpace(n_chunks * GRANULES_PER_2M, phys)


def make_asp_1g(n_nodes=2):
    phys = PhysicalMemory([2 * GIB] * n_nodes)
    return AddressSpace(GRANULES_PER_1G, phys)


class TestVersionBumps:
    def test_starts_at_zero(self):
        assert make_asp().version == 0

    def test_fault_in_bumps(self):
        asp = make_asp()
        v = asp.version
        asp.fault_in(np.array([5, 6]), node=0, thp_alloc=False)
        assert asp.version > v

    def test_fault_in_thp_bumps(self):
        asp = make_asp()
        v = asp.version
        asp.fault_in(np.array([5]), node=0, thp_alloc=True)
        assert asp.version > v

    def test_noop_fault_does_not_bump(self):
        asp = make_asp()
        asp.fault_in(np.array([5]), node=0, thp_alloc=False)
        v = asp.version
        asp.fault_in(np.array([5]), node=1, thp_alloc=False)
        assert asp.version == v

    def test_premap_pattern_4k_bumps(self):
        asp = make_asp()
        v = asp.version
        asp.premap_pattern_4k(0, np.array([0, 1, 0, 1]))
        assert asp.version > v

    def test_premap_pattern_2m_bumps(self):
        asp = make_asp()
        v = asp.version
        asp.premap_pattern_2m(0, np.array([0, 1]))
        assert asp.version > v

    def test_map_range_1g_bumps(self):
        asp = make_asp_1g()
        v = asp.version
        asp.map_range_1g(0, GRANULES_PER_1G, node=0)
        assert asp.version > v

    def test_split_chunk_bumps(self):
        asp = make_asp()
        asp.fault_in(np.array([5]), node=0, thp_alloc=True)
        v = asp.version
        asp.split_chunk(0)
        assert asp.version > v

    def test_split_gchunk_bumps(self):
        asp = make_asp_1g()
        asp.map_range_1g(0, GRANULES_PER_1G, node=0)
        v = asp.version
        asp.split_gchunk(0)
        assert asp.version > v

    def test_collapse_chunk_bumps(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(GRANULES_PER_2M, dtype=np.int8))
        v = asp.version
        assert asp.collapse_chunk(0)
        assert asp.version > v

    def test_failed_collapse_does_not_bump(self):
        asp = make_asp()
        asp.fault_in(np.array([5]), node=0, thp_alloc=False)
        v = asp.version
        assert not asp.collapse_chunk(0)  # chunk not fully mapped
        assert asp.version == v

    def test_migrate_backing_4k_bumps(self):
        asp = make_asp()
        asp.fault_in(np.array([5]), node=0, thp_alloc=False)
        v = asp.version
        assert asp.migrate_backing(5, 1) > 0
        assert asp.version > v

    def test_migrate_backing_2m_bumps(self):
        asp = make_asp()
        asp.fault_in(np.array([5]), node=0, thp_alloc=True)
        v = asp.version
        assert asp.migrate_backing(BACKING_ID_2M_OFFSET + 0, 1) > 0
        assert asp.version > v

    def test_migrate_to_same_node_does_not_bump(self):
        asp = make_asp()
        asp.fault_in(np.array([5]), node=0, thp_alloc=False)
        v = asp.version
        assert asp.migrate_backing(5, 0) == 0
        assert asp.version == v

    def test_migrate_granules_bumps(self):
        asp = make_asp()
        asp.fault_in(np.array([5, 6]), node=0, thp_alloc=False)
        v = asp.version
        assert asp.migrate_granules(np.array([5, 6]), np.array([1, 1])) > 0
        assert asp.version > v

    def test_migrate_granules_noop_does_not_bump(self):
        asp = make_asp()
        asp.fault_in(np.array([5, 6]), node=0, thp_alloc=False)
        v = asp.version
        assert asp.migrate_granules(np.array([5, 6]), np.array([0, 0])) == 0
        assert asp.version == v

    def test_replicate_and_unreplicate_bump(self):
        asp = make_asp()
        asp.fault_in(np.array([5]), node=0, thp_alloc=False)
        v = asp.version
        assert asp.replicate_backing(5) > 0
        assert asp.version > v
        v = asp.version
        assert asp.unreplicate_backing(5) > 0
        assert asp.version > v

    def test_unreplicate_noop_does_not_bump(self):
        asp = make_asp()
        asp.fault_in(np.array([5]), node=0, thp_alloc=False)
        v = asp.version
        assert asp.unreplicate_backing(5) == 0
        assert asp.version == v

    def test_reads_do_not_bump(self):
        asp = make_asp()
        asp.fault_in(np.array([5, 6]), node=0, thp_alloc=True)
        v = asp.version
        asp.home_nodes(np.array([5, 6]))
        asp.home_nodes_for(np.array([5, 6]), 1)
        asp.backing_ids(np.array([5, 6]))
        asp.replication_mask(np.array([5, 6]))
        asp.bytes_per_node()
        asp.page_counts()
        asp.mapped_bytes()
        assert asp.version == v


class TestResolvedHomeMap:
    """The lazy resolved map must be bit-identical to the slow path."""

    @staticmethod
    def _mixed_asp():
        phys = PhysicalMemory([4 * GIB] * 2)
        asp = AddressSpace(2 * GRANULES_PER_1G, phys)
        asp.map_range_1g(GRANULES_PER_1G, GRANULES_PER_1G, node=1)
        asp.premap_pattern_2m(0, np.array([0, 1, 0]))
        asp.premap_pattern_4k(
            3 * GRANULES_PER_2M, np.tile([0, 1], GRANULES_PER_2M // 2)
        )
        return asp

    def test_second_translation_matches_first(self):
        asp = self._mixed_asp()
        g = np.arange(0, 2 * GRANULES_PER_1G, 7, dtype=np.int64)
        slow = asp.home_nodes(g)  # first sighting: slow path
        fast = asp.home_nodes(g)  # second sighting: resolved map
        assert fast.dtype == slow.dtype
        assert np.array_equal(slow, fast)

    def test_unmapped_stays_negative(self):
        asp = self._mixed_asp()
        hole = np.array([4 * GRANULES_PER_2M + 3], dtype=np.int64)
        assert asp.home_nodes(hole)[0] == -1
        assert asp.home_nodes(hole)[0] == -1

    def test_invalidated_by_mutation(self):
        asp = self._mixed_asp()
        g = np.array([3 * GRANULES_PER_2M], dtype=np.int64)
        asp.home_nodes(g)
        asp.home_nodes(g)  # resolved map now built
        assert asp.home_nodes(g)[0] == 0
        assert asp.migrate_backing(int(g[0]), 1) > 0
        assert asp.home_nodes(g)[0] == 1
        assert asp.home_nodes(g)[0] == 1  # rebuilt map agrees

    def test_fresh_writes_each_call(self):
        asp = self._mixed_asp()
        g = np.arange(8, dtype=np.int64)
        asp.home_nodes(g)
        a = asp.home_nodes(g)
        b = asp.home_nodes(g)
        a[:] = -7  # caller-side mutation must not leak into the cache
        assert not np.array_equal(a, b)
        assert np.array_equal(asp.home_nodes(g), b)
