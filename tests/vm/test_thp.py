"""Tests for THP state and the khugepaged promotion scanner."""

import numpy as np

from repro.vm.address_space import AddressSpace
from repro.vm.frame_allocator import PhysicalMemory
from repro.vm.layout import GRANULES_PER_2M, PageSize
from repro.vm.thp import ThpState, khugepaged_scan
from tests.vm_helpers import node_of_backing

GIB = 1 << 30


def make_asp(n_chunks=8):
    phys = PhysicalMemory([GIB, GIB])
    return AddressSpace(n_chunks * GRANULES_PER_2M, phys)


class TestThpState:
    def test_defaults_enabled(self):
        state = ThpState()
        assert state.alloc_enabled
        assert state.promotion_enabled

    def test_toggles(self):
        state = ThpState()
        state.disable_alloc()
        state.disable_promotion()
        assert not state.alloc_enabled
        assert not state.promotion_enabled
        state.enable_alloc()
        state.enable_promotion()
        assert state.alloc_enabled
        assert state.promotion_enabled


class TestKhugepaged:
    def test_collapses_fully_mapped_chunks(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(512, dtype=np.int8))
        state = ThpState(scan_batch=1024)
        collapsed = khugepaged_scan(state, asp)
        assert collapsed == 1
        assert asp.page_counts()[PageSize.SIZE_2M] == 1

    def test_skips_partial_chunks(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(100, dtype=np.int8))
        state = ThpState(scan_batch=1024)
        assert khugepaged_scan(state, asp) == 0

    def test_disabled_promotion_is_noop(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(512, dtype=np.int8))
        state = ThpState(promotion_enabled=False)
        assert khugepaged_scan(state, asp) == 0
        assert asp.page_counts()[PageSize.SIZE_2M] == 0

    def test_scan_cursor_round_robin(self):
        asp = make_asp(n_chunks=8)
        for chunk in range(8):
            asp.premap_pattern_4k(
                chunk * GRANULES_PER_2M, np.zeros(512, dtype=np.int8)
            )
        state = ThpState(scan_batch=2)
        total = 0
        for _ in range(4):
            total += khugepaged_scan(state, asp)
        assert total == 8  # batches cover the whole space round-robin

    def test_max_collapses_cap(self):
        asp = make_asp()
        for chunk in range(4):
            asp.premap_pattern_4k(
                chunk * GRANULES_PER_2M, np.zeros(512, dtype=np.int8)
            )
        state = ThpState(scan_batch=4096)
        assert khugepaged_scan(state, asp, max_collapses=2) == 2

    def test_collapse_targets_plurality_node(self):
        asp = make_asp()
        nodes = np.concatenate(
            [np.zeros(100, dtype=np.int8), np.ones(412, dtype=np.int8)]
        )
        asp.premap_pattern_4k(0, nodes)
        state = ThpState(scan_batch=1024)
        khugepaged_scan(state, asp)
        from repro.vm.address_space import BACKING_ID_2M_OFFSET

        assert node_of_backing(asp, BACKING_ID_2M_OFFSET) == 1
