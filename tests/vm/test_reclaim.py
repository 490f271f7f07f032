"""Reclaim, teardown, and fragmenting-pressure pins.

These back the multi-tenant machinery: ``reclaim_granules`` is the
``ReclaimPages`` decision's mechanism, ``release_all`` is tenant exit,
and ``NodeMemory.pin_fragmented`` is how scenarios model a loaded
host's fragmented occupancy.
"""

import numpy as np
import pytest

from repro.analysis.invariants import check_address_space
from repro.errors import ConfigurationError, MappingError
from repro.vm.address_space import AddressSpace, BACKING_ID_2M_OFFSET
from repro.vm.frame_allocator import NodeMemory, PhysicalMemory
from repro.vm.layout import GRANULES_PER_2M, ORDER_2M, PAGE_2M, PAGE_4K
from tests.vm_helpers import check_buddy_invariants, free_blocks

GIB = 1 << 30


def make_asp(n_chunks=8, n_nodes=2, dram=GIB):
    phys = PhysicalMemory([dram] * n_nodes)
    return AddressSpace(n_chunks * GRANULES_PER_2M, phys)


class TestReclaimGranules:
    def test_reclaims_mapped_4k(self):
        asp = make_asp()
        asp.fault_in(np.arange(8), node=0, thp_alloc=False)
        used_before = asp.phys.total_used_bytes
        freed = asp.reclaim_granules(np.arange(4))
        assert freed == 4 * PAGE_4K
        assert asp.reclaimed_bytes == freed
        assert asp.phys.total_used_bytes == used_before - freed
        assert np.all(asp.home_nodes(np.arange(4)) == -1)
        assert np.all(asp.home_nodes(np.arange(4, 8)) == 0)
        check_address_space(asp)

    def test_skips_unmapped_and_huge_backed(self):
        asp = make_asp()
        asp.fault_in(np.array([0]), node=0, thp_alloc=True)  # chunk 0 huge
        asp.fault_in(np.array([GRANULES_PER_2M]), node=0, thp_alloc=False)
        freed = asp.reclaim_granules(
            np.array([0, 1, GRANULES_PER_2M, GRANULES_PER_2M + 1])
        )
        # Only the one plain 4KB mapping is eligible.
        assert freed == PAGE_4K
        assert asp.home_nodes(np.array([0]))[0] == 0
        check_address_space(asp)

    def test_skips_replicated(self):
        asp = make_asp()
        asp.fault_in(np.array([3]), node=0, thp_alloc=False)
        asp.replicate_backing(3)
        assert asp.reclaim_granules(np.array([3])) == 0
        check_address_space(asp)

    def test_reclaimed_granule_faults_back_in(self):
        asp = make_asp()
        asp.fault_in(np.array([5]), node=0, thp_alloc=False)
        asp.reclaim_granules(np.array([5]))
        stats = asp.fault_in(np.array([5]), node=1, thp_alloc=False)
        assert stats.faults_4k == 1
        assert asp.home_nodes(np.array([5]))[0] == 1
        check_address_space(asp)

    def test_out_of_range_rejected(self):
        asp = make_asp()
        with pytest.raises(MappingError):
            asp.reclaim_granules(np.array([-1]))
        with pytest.raises(MappingError):
            asp.reclaim_granules(np.array([asp.n_granules]))

    def test_counter_accumulates(self):
        asp = make_asp()
        asp.fault_in(np.arange(6), node=0, thp_alloc=False)
        asp.reclaim_granules(np.arange(2))
        asp.reclaim_granules(np.arange(2, 4))
        assert asp.reclaimed_bytes == 4 * PAGE_4K


class TestReleaseAll:
    def test_returns_every_frame(self):
        asp = make_asp()
        asp.fault_in(np.array([0]), node=0, thp_alloc=True)
        asp.fault_in(
            np.arange(GRANULES_PER_2M, GRANULES_PER_2M + 16),
            node=1,
            thp_alloc=False,
        )
        mapped = asp.mapped_bytes()
        assert mapped == PAGE_2M + 16 * PAGE_4K
        released = asp.release_all()
        assert released == mapped
        assert asp.mapped_bytes() == 0
        assert asp.phys.total_used_bytes == 0
        assert asp.reclaimed_bytes == released
        check_address_space(asp)

    def test_collapses_replicas_first(self):
        asp = make_asp()
        asp.fault_in(np.array([0]), node=0, thp_alloc=True)
        asp.replicate_backing(BACKING_ID_2M_OFFSET)
        assert asp.replica_bytes > 0
        asp.release_all()
        assert asp.replica_bytes == 0
        assert asp.phys.total_used_bytes == 0

    def test_released_space_is_reusable(self):
        asp = make_asp()
        asp.fault_in(np.arange(4), node=0, thp_alloc=False)
        asp.release_all()
        stats = asp.fault_in(np.array([0]), node=0, thp_alloc=True)
        assert stats.faults_2m == 1
        check_address_space(asp)


class TestPinFragmented:
    def test_pins_and_accounts_target(self):
        node = NodeMemory(0, GIB)
        pinned = node.pin_fragmented(int(GIB * 0.7))
        assert pinned == node.pinned_bytes
        assert pinned == pytest.approx(0.7 * GIB, rel=0.01)
        check_buddy_invariants(node.buddy)

    def test_high_pressure_destroys_huge_contiguity(self):
        node = NodeMemory(0, GIB)
        assert node.can_alloc_huge()
        node.pin_fragmented(int(GIB * 0.7))
        # 30% of the node is still free, but only in sub-2MB shards.
        assert node.free_bytes > 0
        assert not node.can_alloc_huge()

    def test_low_pressure_fragments_proportionally(self):
        node = NodeMemory(0, GIB)
        blocks_before = GIB // PAGE_2M
        node.pin_fragmented(int(GIB * 0.3))
        # Pinning f of memory breaks ~2f of the 2MB blocks; the rest
        # must still serve huge allocations.
        assert node.can_alloc_huge()
        intact = sum(
            free_blocks(node.buddy, order) << (order - ORDER_2M)
            for order in range(ORDER_2M, node.buddy.max_order + 1)
        )
        assert intact == pytest.approx(0.4 * blocks_before, rel=0.05)

    def test_small_allocations_still_succeed(self):
        node = NodeMemory(0, GIB)
        node.pin_fragmented(int(GIB * 0.7))
        node.alloc_small(1024)
        assert node.used_bytes >= node.pinned_bytes + 1024 * PAGE_4K
        check_buddy_invariants(node.buddy)

    def test_negative_target_rejected(self):
        node = NodeMemory(0, GIB)
        with pytest.raises(ConfigurationError):
            node.pin_fragmented(-1)

    def test_zero_target_is_noop(self):
        node = NodeMemory(0, GIB)
        assert node.pin_fragmented(0) == 0
        assert node.pinned_bytes == 0
