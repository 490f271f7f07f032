"""Tests for the multi-size address space, including property tests."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.invariants import check_address_space
from repro.errors import AllocationError, MappingError
from repro.vm.address_space import (
    AddressSpace,
    BACKING_ID_1G_OFFSET,
    BACKING_ID_2M_OFFSET,
)
from repro.vm.frame_allocator import PhysicalMemory
from repro.vm.layout import (
    GRANULES_PER_1G,
    GRANULES_PER_2M,
    PAGE_2M,
    PAGE_4K,
    PageSize,
)
from tests.vm_helpers import node_of_backing

GIB = 1 << 30


def make_asp(n_chunks=8, n_nodes=2, dram=GIB):
    phys = PhysicalMemory([dram] * n_nodes)
    return AddressSpace(n_chunks * GRANULES_PER_2M, phys)


class TestFaulting:
    def test_unmapped_reads_negative(self):
        asp = make_asp()
        homes = asp.home_nodes(np.array([0, 100]))
        assert np.all(homes == -1)

    def test_fault_in_4k(self):
        asp = make_asp()
        stats = asp.fault_in(np.array([5, 6, 7]), node=1, thp_alloc=False)
        assert stats.faults_4k == 3
        assert stats.faults_2m == 0
        assert np.all(asp.home_nodes(np.array([5, 6, 7])) == 1)
        check_address_space(asp)

    def test_fault_in_thp_backs_whole_chunk(self):
        asp = make_asp()
        stats = asp.fault_in(np.array([5]), node=0, thp_alloc=True)
        assert stats.faults_2m == 1
        homes = asp.home_nodes(np.arange(GRANULES_PER_2M))
        assert np.all(homes == 0)
        check_address_space(asp)

    def test_fault_in_partially_mapped_chunk_falls_back_to_4k(self):
        asp = make_asp()
        asp.fault_in(np.array([5]), node=0, thp_alloc=False)
        stats = asp.fault_in(np.array([6]), node=1, thp_alloc=True)
        assert stats.faults_4k == 1
        assert stats.faults_2m == 0

    def test_fault_in_already_mapped_is_noop(self):
        asp = make_asp()
        asp.fault_in(np.array([5]), node=0, thp_alloc=False)
        stats = asp.fault_in(np.array([5, 5, 5]), node=1, thp_alloc=False)
        assert stats.total == 0
        assert asp.home_nodes(np.array([5]))[0] == 0  # first touch wins

    def test_fault_falls_back_when_node_full(self):
        # Node 0 has a single 2MB page worth of memory.
        phys = PhysicalMemory([PAGE_2M, GIB])
        asp = AddressSpace(4 * GRANULES_PER_2M, phys)
        asp.fault_in(np.arange(GRANULES_PER_2M), node=0, thp_alloc=False)
        stats = asp.fault_in(
            np.arange(GRANULES_PER_2M, GRANULES_PER_2M + 4), node=0, thp_alloc=False
        )
        assert stats.faults_4k == 4
        assert np.all(
            asp.home_nodes(np.arange(GRANULES_PER_2M, GRANULES_PER_2M + 4)) == 1
        )

    def test_empty_fault(self):
        asp = make_asp()
        assert asp.fault_in(np.empty(0, dtype=np.int64), 0, True).total == 0


class TestPremap:
    def test_premap_out_of_range(self):
        asp = make_asp(n_chunks=1)
        with pytest.raises(MappingError):
            asp.premap_pattern_4k(0, np.zeros(GRANULES_PER_2M + 1, dtype=np.int8))
        with pytest.raises(MappingError):
            asp.premap_pattern_2m(0, np.zeros(2, dtype=np.int8))
        assert asp.mapped_bytes() == 0

    def test_premap_pattern_4k(self):
        asp = make_asp()
        nodes = np.array([0, 1] * 256, dtype=np.int8)
        asp.premap_pattern_4k(0, nodes)
        homes = asp.home_nodes(np.arange(512))
        assert np.array_equal(homes, nodes)
        check_address_space(asp)

    @pytest.mark.parametrize(
        "start, size",
        [
            (0, 1),  # one granule
            (3, 500),  # inside one chunk, both ends partial
            (0, GRANULES_PER_2M),  # exactly one chunk
            (GRANULES_PER_2M - 1, 2),  # straddling a boundary
            (100, 3 * GRANULES_PER_2M),  # partial, full, full, partial
            (GRANULES_PER_2M, 4 * GRANULES_PER_2M),  # full chunks only
            (7 * GRANULES_PER_2M + 5, GRANULES_PER_2M - 5),  # to the end
        ],
    )
    def test_premap_pattern_4k_counts_each_chunks_mappings(self, start, size):
        """Each chunk the range covers counts its new mappings: the
        per-granule count over the range, chunk by chunk."""
        asp = make_asp()
        asp.premap_pattern_4k(start, np.ones(size, dtype=np.int8))
        want = np.bincount(
            np.arange(start, start + size) // GRANULES_PER_2M,
            minlength=asp.n_chunks_2m,
        )
        assert asp.mapped_count_2m.dtype == np.int32
        np.testing.assert_array_equal(asp.mapped_count_2m, want)
        check_address_space(asp)

    def test_premap_pattern_4k_overlap_rejected(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(10, dtype=np.int8))
        with pytest.raises(MappingError):
            asp.premap_pattern_4k(5, np.zeros(10, dtype=np.int8))

    def test_premap_pattern_4k_bad_nodes(self):
        asp = make_asp()
        with pytest.raises(MappingError):
            asp.premap_pattern_4k(0, np.array([7], dtype=np.int8))

    def test_premap_pattern_2m(self):
        asp = make_asp()
        asp.premap_pattern_2m(0, np.array([0, 1, 0], dtype=np.int8))
        assert asp.page_counts()[PageSize.SIZE_2M] == 3
        assert node_of_backing(asp, BACKING_ID_2M_OFFSET + 1) == 1
        check_address_space(asp)

    def test_premap_pattern_2m_overlap_rejected(self):
        asp = make_asp()
        asp.premap_pattern_2m(0, np.array([0], dtype=np.int8))
        with pytest.raises(MappingError):
            asp.premap_pattern_2m(0, np.array([1], dtype=np.int8))


class TestBackingInfo:
    def test_mixed_backing(self):
        asp = make_asp()
        asp.premap_pattern_2m(0, np.array([0], dtype=np.int8))
        asp.premap_pattern_4k(GRANULES_PER_2M, np.ones(4, dtype=np.int8))
        g = np.array([0, 5, GRANULES_PER_2M, GRANULES_PER_2M + 3])
        ids = asp.backing_ids(g)
        assert ids[0] == ids[1] == BACKING_ID_2M_OFFSET
        assert ids[2] == GRANULES_PER_2M
        assert AddressSpace.backing_id_kind(ids[0]) is PageSize.SIZE_2M
        assert AddressSpace.backing_id_kind(ids[2]) is PageSize.SIZE_4K

    def test_backing_id_kind(self):
        assert AddressSpace.backing_id_kind(7) is PageSize.SIZE_4K
        assert AddressSpace.backing_id_kind(BACKING_ID_2M_OFFSET) is PageSize.SIZE_2M
        assert AddressSpace.backing_id_kind(BACKING_ID_1G_OFFSET) is PageSize.SIZE_1G

    def test_granules_of_backing(self):
        asp = make_asp()
        g = asp.granules_of_backing(BACKING_ID_2M_OFFSET + 1)
        assert g[0] == GRANULES_PER_2M
        assert len(g) == GRANULES_PER_2M

    def test_backing_is_live(self):
        asp = make_asp()
        assert not asp.backing_is_live(0)
        assert not asp.backing_is_live(BACKING_ID_2M_OFFSET)
        asp.premap_pattern_2m(0, np.array([0], dtype=np.int8))
        assert asp.backing_is_live(BACKING_ID_2M_OFFSET)
        asp.split_chunk(0)
        assert not asp.backing_is_live(BACKING_ID_2M_OFFSET)
        assert asp.backing_is_live(0)


class TestSplitCollapse:
    def test_split_preserves_homes(self):
        asp = make_asp()
        asp.premap_pattern_2m(0, np.array([1], dtype=np.int8))
        used_before = asp.phys[1].used_bytes
        asp.split_chunk(0)
        homes = asp.home_nodes(np.arange(GRANULES_PER_2M))
        assert np.all(homes == 1)
        assert asp.phys[1].used_bytes == used_before
        check_address_space(asp)

    def test_split_not_huge_rejected(self):
        asp = make_asp()
        with pytest.raises(MappingError):
            asp.split_chunk(0)

    def test_collapse_plurality_node(self):
        asp = make_asp()
        nodes = np.concatenate(
            [np.zeros(200, dtype=np.int8), np.ones(312, dtype=np.int8)]
        )
        asp.premap_pattern_4k(0, nodes)
        assert asp.collapse_chunk(0)
        assert node_of_backing(asp, BACKING_ID_2M_OFFSET) == 1
        check_address_space(asp)

    def test_collapse_partial_chunk_refused(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(100, dtype=np.int8))
        assert not asp.collapse_chunk(0)

    def test_collapse_explicit_node(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(512, dtype=np.int8))
        assert asp.collapse_chunk(0, node=1)
        assert node_of_backing(asp, BACKING_ID_2M_OFFSET) == 1

    def test_split_collapse_roundtrip_accounting(self):
        asp = make_asp()
        asp.premap_pattern_2m(0, np.array([0], dtype=np.int8))
        before = asp.phys.total_used_bytes
        asp.split_chunk(0)
        asp.collapse_chunk(0)
        assert asp.phys.total_used_bytes == before
        check_address_space(asp)


class TestMigration:
    def test_migrate_4k(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(4, dtype=np.int8))
        moved = asp.migrate_backing(2, 1)
        assert moved == 4096
        assert asp.home_nodes(np.array([2]))[0] == 1

    def test_migrate_4k_same_node_is_noop(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(1, dtype=np.int8))
        assert asp.migrate_backing(0, 0) == 0

    def test_migrate_2m(self):
        asp = make_asp()
        asp.premap_pattern_2m(0, np.array([0], dtype=np.int8))
        moved = asp.migrate_backing(BACKING_ID_2M_OFFSET, 1)
        assert moved == PAGE_2M
        assert node_of_backing(asp, BACKING_ID_2M_OFFSET) == 1
        check_address_space(asp)

    def test_migrate_unmapped_rejected(self):
        asp = make_asp()
        with pytest.raises(MappingError):
            asp.migrate_backing(0, 1)

    def test_migrate_bad_node_rejected(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(1, dtype=np.int8))
        with pytest.raises(MappingError):
            asp.migrate_backing(0, 9)

    def test_migrate_full_destination_skipped(self):
        phys = PhysicalMemory([GIB, PAGE_2M])
        asp = AddressSpace(4 * GRANULES_PER_2M, phys)
        asp.premap_pattern_2m(0, np.array([0, 0], dtype=np.int8))
        phys[1].alloc_small(512)  # fill node 1 entirely
        assert asp.migrate_backing(BACKING_ID_2M_OFFSET, 1) == 0

    def test_migrate_granules_bulk(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(8, dtype=np.int8))
        g = np.arange(8)
        dst = np.array([0, 1] * 4)
        moved = asp.migrate_granules(g, dst)
        assert moved == 4 * 4096
        assert np.array_equal(asp.home_nodes(g), dst.astype(np.int8))
        check_address_space(asp)

    def test_migrate_granules_requires_4k(self):
        asp = make_asp()
        asp.premap_pattern_2m(0, np.array([0], dtype=np.int8))
        with pytest.raises(MappingError):
            asp.migrate_granules(np.array([0]), np.array([1]))


class Test1GPages:
    def make_1g_asp(self):
        phys = PhysicalMemory([4 * GIB, 4 * GIB])
        return AddressSpace(2 * GRANULES_PER_1G, phys)

    def test_map_1g(self):
        asp = self.make_1g_asp()
        stats = asp.map_range_1g(0, GRANULES_PER_1G, node=1)
        assert stats.faults_1g == 1
        assert asp.home_nodes(np.array([0, GRANULES_PER_1G - 1])).tolist() == [1, 1]
        check_address_space(asp)

    def test_map_1g_misaligned_rejected(self):
        asp = self.make_1g_asp()
        with pytest.raises(MappingError):
            asp.map_range_1g(512, GRANULES_PER_1G, 0)

    def test_map_1g_overlap_rejected(self):
        asp = self.make_1g_asp()
        asp.premap_pattern_4k(0, np.zeros(4, dtype=np.int8))
        with pytest.raises(MappingError):
            asp.map_range_1g(0, GRANULES_PER_1G, 0)

    def test_map_1g_past_the_end_rejected(self):
        asp = self.make_1g_asp()
        with pytest.raises(MappingError, match="outside"):
            asp.map_range_1g(GRANULES_PER_1G, 2 * GRANULES_PER_1G, 0)
        assert not asp.giga.any()

    def test_map_1g_pool_exhaustion_raises(self):
        # A 1GB node holds exactly one 1GB block: libhugetlbfs fails
        # hard once the pool is used up, and so does the model.
        asp = AddressSpace(2 * GRANULES_PER_1G, PhysicalMemory([GIB, GIB]))
        asp.map_range_1g(0, GRANULES_PER_1G, node=0)
        with pytest.raises(AllocationError):
            asp.map_range_1g(GRANULES_PER_1G, GRANULES_PER_1G, node=0)
        assert asp.giga.tolist() == [True, False]
        check_address_space(asp)

    def test_split_1g(self):
        asp = self.make_1g_asp()
        asp.map_range_1g(0, GRANULES_PER_1G, node=0)
        asp.split_gchunk(0)
        homes = asp.home_nodes(np.array([0, GRANULES_PER_1G - 1]))
        assert np.all(homes == 0)
        assert asp.page_counts()[PageSize.SIZE_1G] == 0
        check_address_space(asp)

    def test_migrate_1g(self):
        asp = self.make_1g_asp()
        asp.map_range_1g(0, GRANULES_PER_1G, node=0)
        moved = asp.migrate_backing(BACKING_ID_1G_OFFSET, 1)
        assert moved == 1 << 30
        assert node_of_backing(asp, BACKING_ID_1G_OFFSET) == 1


class TestIntrospection:
    def test_mapped_bytes(self):
        asp = make_asp()
        asp.premap_pattern_2m(0, np.array([0], dtype=np.int8))
        asp.premap_pattern_4k(GRANULES_PER_2M, np.ones(3, dtype=np.int8))
        assert asp.mapped_bytes() == PAGE_2M + 3 * 4096

    def test_bytes_per_node(self):
        asp = make_asp()
        asp.premap_pattern_2m(0, np.array([0, 1], dtype=np.int8))
        per = asp.bytes_per_node()
        assert per[0] == PAGE_2M
        assert per[1] == PAGE_2M

    def test_bytes_per_node_counts_4k_pages(self):
        asp = make_asp(n_nodes=3)
        asp.premap_pattern_4k(7, np.array([2, 0, 2, 2, 0, 2], dtype=np.int8))
        assert asp.bytes_per_node().tolist() == [2 * PAGE_4K, 0, 4 * PAGE_4K]

    def test_bytes_per_node_counts_1g_pages(self):
        asp = AddressSpace(2 * GRANULES_PER_1G, PhysicalMemory([4 * GIB, 4 * GIB]))
        asp.map_range_1g(GRANULES_PER_1G, GRANULES_PER_1G, node=1)
        assert asp.bytes_per_node().tolist() == [0, GIB]

    def test_an_empty_space_holds_no_bytes_on_any_node(self):
        per = make_asp(n_nodes=3).bytes_per_node()
        assert per.dtype == np.int64
        assert per.tolist() == [0, 0, 0]

    def test_reclaimed_granules_leave_their_node(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.ones(8, dtype=np.int8))
        asp.reclaim_granules(np.arange(3))
        assert asp.bytes_per_node().tolist() == [0, 5 * PAGE_4K]

    def test_bytes_per_node_matches_a_per_granule_count(self):
        """Each node's mapped bytes, in a space mixing all three page
        sizes with holes, equal a count of every granule's home."""
        asp = AddressSpace(2 * GRANULES_PER_1G, PhysicalMemory([4 * GIB] * 3))
        asp.map_range_1g(GRANULES_PER_1G, GRANULES_PER_1G, node=2)
        asp.premap_pattern_2m(0, np.array([1, 0, 1], dtype=np.int8))
        rng = np.random.default_rng(0)
        granules = rng.choice(
            np.arange(3 * GRANULES_PER_2M, GRANULES_PER_1G), 4000, replace=False
        )
        for node in range(3):
            asp.fault_in(granules[node::3], node=node, thp_alloc=False)
        homes = asp.home_nodes(np.arange(asp.n_granules))
        want = np.bincount(homes[homes >= 0], minlength=3) * PAGE_4K
        assert asp.bytes_per_node().tolist() == want.tolist()
        assert int(asp.bytes_per_node().sum()) == asp.mapped_bytes()


class TestProperties:
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 7), st.integers(0, 1)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_random_op_sequences_keep_invariants(self, ops):
        """Random premap/split/collapse/migrate/replicate/reclaim
        sequences stay consistent, and ``layout_version`` moves exactly
        when ``mapped_count_2m``, ``huge`` or ``giga`` change."""
        asp = make_asp(n_chunks=8, n_nodes=2)
        for op, chunk, node in ops:
            layout = (
                asp.mapped_count_2m.copy(), asp.huge.copy(), asp.giga.copy()
            )
            layout_version, version = asp.layout_version, asp.version
            g = chunk * GRANULES_PER_2M
            if op == 0:  # premap huge if fully unmapped
                if not asp.huge[chunk] and asp.mapped_count_2m[chunk] == 0:
                    asp.premap_pattern_2m(chunk, np.array([node], dtype=np.int8))
            elif op == 1:  # split if huge
                if asp.huge[chunk]:
                    asp.split_chunk(chunk)
            elif op == 2:  # collapse (may refuse)
                asp.collapse_chunk(chunk)
            elif op == 5:  # reclaim the chunk's first granules
                asp.reclaim_granules(np.arange(g, g + 8))
            else:  # migrate or replicate the backing at chunk start
                ids = asp.backing_ids(np.array([g]))
                if asp.backing_is_live(int(ids[0])):
                    if op == 3:
                        asp.migrate_backing(int(ids[0]), node)
                    else:
                        asp.replicate_backing(int(ids[0]))
            changed = not all(
                np.array_equal(before, now)
                for before, now in zip(
                    layout, (asp.mapped_count_2m, asp.huge, asp.giga)
                )
            )
            assert (asp.layout_version != layout_version) == changed
            if changed:
                assert asp.version > version
        check_address_space(asp)
        # Physical accounting matches the mapping plus the replica copies.
        assert asp.phys.total_used_bytes == asp.mapped_bytes() + asp.replica_bytes
