"""Tests for the buddy allocator and per-node memory, incl. properties."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AllocationError, ConfigurationError
from repro.vm.frame_allocator import BuddyAllocator, NodeMemory, PhysicalMemory
from repro.vm.layout import ORDER_1G, ORDER_2M, PAGE_2M, PAGE_4K
from tests.vm_helpers import check_buddy_invariants, free_blocks

MIB_FRAMES = 256  # 1 MiB worth of 4K frames


class TestBuddyBasics:
    def test_initial_free(self):
        b = BuddyAllocator(1 << 12)
        assert b.free_frames == 1 << 12
        assert b.allocated_frames == 0

    def test_alloc_free_roundtrip(self):
        b = BuddyAllocator(1 << 12)
        start = b.alloc(3)
        assert b.free_frames == (1 << 12) - 8
        b.free(start, 3)
        assert b.free_frames == 1 << 12
        check_buddy_invariants(b)

    def test_alignment(self):
        b = BuddyAllocator(1 << 12)
        for order in (0, 3, 9):
            start = b.alloc(order)
            assert start % (1 << order) == 0

    def test_split_and_merge(self):
        b = BuddyAllocator(1 << 10, max_order=10)
        blocks = [b.alloc(0) for _ in range(4)]
        for start in blocks:
            b.free(start, 0)
        check_buddy_invariants(b)
        # Everything merged back: one max-order block again.
        assert free_blocks(b, 10) == 1

    def test_exhaustion_raises(self):
        b = BuddyAllocator(8, max_order=3)
        b.alloc(3)
        with pytest.raises(AllocationError):
            b.alloc(0)

    def test_double_free_rejected(self):
        b = BuddyAllocator(64, max_order=6)
        start = b.alloc(2)
        b.free(start, 2)
        with pytest.raises(AllocationError):
            b.free(start, 2)

    def test_wrong_order_free_rejected(self):
        b = BuddyAllocator(64, max_order=6)
        start = b.alloc(2)
        with pytest.raises(AllocationError):
            b.free(start, 3)
        b.free(start, 2)  # still freeable correctly

    def test_free_unallocated_rejected(self):
        b = BuddyAllocator(64, max_order=6)
        with pytest.raises(AllocationError):
            b.free(0, 0)

    def test_can_alloc(self):
        b = BuddyAllocator(16, max_order=4)
        assert b.can_alloc(4)
        b.alloc(4)
        assert not b.can_alloc(0)

    def test_largest_free_order(self):
        b = BuddyAllocator(1 << 10, max_order=10)
        assert b.largest_free_order() == 10
        b.alloc(10)
        assert b.largest_free_order() == -1

    def test_irregular_size_seeding(self):
        # 1000 frames = 512 + 256 + 128 + 64 + 32 + 8
        b = BuddyAllocator(1000, max_order=9)
        assert b.free_frames == 1000
        check_buddy_invariants(b)

    def test_fragmentation_blocks_large_alloc(self):
        b = BuddyAllocator(1 << 10, max_order=10)
        # Allocate every other order-0 pair position to fragment.
        held = [b.alloc(0) for _ in range(1 << 10)]
        for start in held[::2]:
            b.free(start, 0)
        assert b.free_frames == 512
        assert not b.can_alloc(9)

    def test_invalid_order(self):
        b = BuddyAllocator(64, max_order=6)
        with pytest.raises(ConfigurationError):
            b.alloc(7)

    def test_invalid_total(self):
        with pytest.raises(ConfigurationError):
            BuddyAllocator(0)


class TestBuddyProperties:
    @given(
        ops=st.lists(
            st.tuples(st.sampled_from(["alloc", "free"]), st.integers(0, 6)),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_random_ops_keep_invariants(self, ops):
        b = BuddyAllocator(1 << 10, max_order=10)
        live = []
        for op, order in ops:
            if op == "alloc":
                try:
                    start = b.alloc(order)
                except AllocationError:
                    continue
                live.append((start, order))
            elif live:
                start, o = live.pop()
                b.free(start, o)
        check_buddy_invariants(b)
        allocated = sum(1 << o for _, o in live)
        assert b.allocated_frames == allocated

    @given(orders=st.lists(st.integers(0, 8), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_alloc_all_then_free_all_restores(self, orders):
        b = BuddyAllocator(1 << 12, max_order=12)
        live = []
        for order in orders:
            try:
                live.append((b.alloc(order), order))
            except AllocationError:
                pass
        for start, order in live:
            b.free(start, order)
        check_buddy_invariants(b)
        assert b.free_frames == 1 << 12
        assert free_blocks(b, 12) == 1

    @given(orders=st.lists(st.integers(0, 6), min_size=2, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_no_overlapping_allocations(self, orders):
        b = BuddyAllocator(1 << 10, max_order=10)
        spans = []
        for order in orders:
            try:
                start = b.alloc(order)
            except AllocationError:
                continue
            span = set(range(start, start + (1 << order)))
            for other in spans:
                assert not (span & other)
            spans.append(span)


class TestNodeMemory:
    def test_small_pool_accounting(self):
        node = NodeMemory(0, 64 * PAGE_2M)
        node.alloc_small(100)
        assert node.used_bytes == 100 * PAGE_4K
        node.free_small(100)
        assert node.used_bytes == 0

    def test_pool_carves_blocks(self):
        node = NodeMemory(0, 64 * PAGE_2M)
        node.alloc_small(1)
        stats = node.pool_stats()
        assert stats.reserved_blocks == 1
        assert stats.free_frames_in_pool == 511

    def test_pool_returns_blocks(self):
        node = NodeMemory(0, 64 * PAGE_2M)
        node.alloc_small(512)
        node.free_small(512)
        assert node.pool_stats().reserved_blocks == 0
        assert node.free_bytes == 64 * PAGE_2M

    def test_huge_roundtrip(self):
        node = NodeMemory(0, 64 * PAGE_2M)
        start = node.alloc_huge()
        assert node.used_bytes == PAGE_2M
        node.free_huge(start)
        assert node.used_bytes == 0

    def test_exhaustion(self):
        node = NodeMemory(0, 2 * PAGE_2M)
        node.alloc_small(1024)
        with pytest.raises(AllocationError):
            node.alloc_small(1)

    def test_fragmentation_blocks_huge(self):
        # Recorded blocks, so they can be freed; pins never are.
        node = NodeMemory(0, 4 * PAGE_2M)
        blocks = node.buddy.alloc_many(0, 4 * 512 - 511)
        assert not node.can_alloc_huge()
        node.buddy.free_many(blocks, 0)
        assert node.can_alloc_huge()

    def test_injected_pins_are_counted_not_recorded(self):
        node = NodeMemory(0, 4 * PAGE_2M)
        node.inject_fragmentation(4 * 512 - 511, order=0)
        assert not node.can_alloc_huge()
        assert node.buddy._allocated == {}
        assert node.pinned_bytes == node.used_bytes == (4 * 512 - 511) * PAGE_4K
        node.buddy.check_accounting()
        with pytest.raises(AllocationError, match="not allocated"):
            node.buddy.free(0, 0)
        with pytest.raises(AllocationError, match="only 511 of 512"):
            node.inject_fragmentation(512, order=0)
        assert node.free_bytes == 0
        assert node.pinned_bytes == 4 * PAGE_2M

    def test_giga_requires_gigabyte(self):
        node = NodeMemory(0, 2 * (1 << 30))
        start = node.alloc_giga()
        assert node.used_bytes == 1 << 30
        node.free_giga(start)

    def test_negative_counts_rejected(self):
        node = NodeMemory(0, PAGE_2M)
        with pytest.raises(ConfigurationError):
            node.alloc_small(-1)
        with pytest.raises(ConfigurationError):
            node.free_small(-1)

    @given(
        ops=st.lists(st.integers(min_value=1, max_value=700), min_size=1, max_size=20)
    )
    @settings(max_examples=40, deadline=None)
    def test_pool_conservation_property(self, ops):
        node = NodeMemory(0, 256 * PAGE_2M)
        held = 0
        for n in ops:
            node.alloc_small(n)
            held += n
        assert node.used_bytes == held * PAGE_4K
        node.free_small(held)
        assert node.used_bytes == 0


class TestPhysicalMemory:
    def test_for_topology(self, tiny_topo):
        phys = PhysicalMemory.for_topology(tiny_topo)
        assert len(phys) == 2
        assert phys.total_free_bytes == sum(n.dram_bytes for n in tiny_topo.nodes)

    def test_node_with_most_free(self):
        phys = PhysicalMemory([4 * PAGE_2M, 8 * PAGE_2M])
        assert phys.node_with_most_free() == 1
        assert phys.node_with_most_free(exclude=1) == 0

    def test_node_with_most_free_all_excluded(self):
        phys = PhysicalMemory([PAGE_2M])
        with pytest.raises(AllocationError):
            phys.node_with_most_free(exclude=0)

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            PhysicalMemory([])
