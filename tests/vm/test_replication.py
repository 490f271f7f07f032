"""Tests for page replication in the address space."""

import numpy as np
import pytest

from repro.analysis.invariants import check_address_space
from repro.errors import MappingError
from repro.vm.address_space import (
    AddressSpace,
    BACKING_ID_1G_OFFSET,
    BACKING_ID_2M_OFFSET,
)
from repro.vm.frame_allocator import PhysicalMemory
from repro.vm.layout import GRANULES_PER_2M, PAGE_2M, PAGE_4K

GIB = 1 << 30


def make_asp(n_chunks=4, n_nodes=2, dram=GIB):
    phys = PhysicalMemory([dram] * n_nodes)
    return AddressSpace(n_chunks * GRANULES_PER_2M, phys)


class TestReplicate4K:
    def test_replicate_and_read_local(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(4, dtype=np.int8))
        copied = asp.replicate_backing(2)
        assert copied == PAGE_4K  # one extra copy on the other node
        g = np.array([2])
        assert asp.home_nodes_for(g, 0)[0] == 0
        assert asp.home_nodes_for(g, 1)[0] == 1
        # Non-replicated neighbours still resolve to their home.
        assert asp.home_nodes_for(np.array([3]), 1)[0] == 0
        check_address_space(asp)

    def test_double_replicate_is_noop(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(1, dtype=np.int8))
        assert asp.replicate_backing(0) > 0
        assert asp.replicate_backing(0) == 0

    def test_unreplicate_frees_copies(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(1, dtype=np.int8))
        used_before = asp.phys.total_used_bytes
        asp.replicate_backing(0)
        assert asp.phys.total_used_bytes == used_before + PAGE_4K
        freed = asp.unreplicate_backing(0)
        assert freed == PAGE_4K
        assert asp.phys.total_used_bytes == used_before
        check_address_space(asp)

    def test_unreplicate_nonreplicated_is_noop(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(1, dtype=np.int8))
        assert asp.unreplicate_backing(0) == 0

    def test_replicate_unmapped_raises(self):
        asp = make_asp()
        with pytest.raises(MappingError):
            asp.replicate_backing(0)

    def test_migration_skips_replicated(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(1, dtype=np.int8))
        asp.replicate_backing(0)
        assert asp.migrate_backing(0, 1) == 0

    def test_bulk_migration_skips_replicated(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(2, dtype=np.int8))
        asp.replicate_backing(0)
        moved = asp.migrate_granules(np.array([0, 1]), np.array([1, 1]))
        assert moved == PAGE_4K  # only granule 1 moved
        check_address_space(asp)

    def test_collapse_chunk_refuses_replicated_members(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(512, dtype=np.int8))
        asp.replicate_backing(5)
        assert not asp.collapse_chunk(0)


class TestReplicate2M:
    def test_replicate_and_read_local(self):
        asp = make_asp(n_nodes=4)
        asp.premap_pattern_2m(0, np.array([2], dtype=np.int8))
        copied = asp.replicate_backing(BACKING_ID_2M_OFFSET)
        assert copied == 3 * PAGE_2M
        g = np.arange(0, GRANULES_PER_2M, 37)
        for node in range(4):
            assert np.all(asp.home_nodes_for(g, node) == node)
        check_address_space(asp)

    def test_replication_mask(self):
        asp = make_asp()
        asp.premap_pattern_2m(0, np.array([0, 1], dtype=np.int8))
        asp.replicate_backing(BACKING_ID_2M_OFFSET)
        mask = asp.replication_mask(np.array([0, GRANULES_PER_2M]))
        assert mask.tolist() == [True, False]

    def test_split_collapses_replicas_first(self):
        asp = make_asp()
        asp.premap_pattern_2m(0, np.array([0], dtype=np.int8))
        asp.replicate_backing(BACKING_ID_2M_OFFSET)
        asp.split_chunk(0)
        assert asp.replica_bytes == 0
        check_address_space(asp)

    def test_replication_fails_when_node_full(self):
        phys = PhysicalMemory([GIB, 2 * PAGE_2M])
        asp = AddressSpace(4 * GRANULES_PER_2M, phys)
        asp.premap_pattern_2m(0, np.array([0], dtype=np.int8))
        phys[1].alloc_small(1024)  # exhaust node 1
        assert asp.replicate_backing(BACKING_ID_2M_OFFSET) == 0
        check_address_space(asp)

    def test_1g_replication_unsupported(self):
        from repro.vm.layout import GRANULES_PER_1G

        phys = PhysicalMemory([4 * GIB, 4 * GIB])
        asp = AddressSpace(GRANULES_PER_1G, phys)
        asp.map_range_1g(0, GRANULES_PER_1G, node=0)
        assert asp.replicate_backing(BACKING_ID_1G_OFFSET) == 0
