"""Tests for the ground-truth access tracker (PAMUP / NHP / PSP)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.tracker import AccessTracker
from repro.vm.address_space import AddressSpace
from repro.vm.frame_allocator import PhysicalMemory
from repro.vm.layout import GRANULES_PER_2M
from tests.per_thread_streams import update

GIB = 1 << 30


def make_asp(n_chunks=8):
    phys = PhysicalMemory([GIB, GIB])
    return AddressSpace(n_chunks * GRANULES_PER_2M, phys)


class TestTracker:
    def test_empty_stats(self):
        tracker = AccessTracker(1024)
        asp = make_asp(2)
        stats = tracker.hot_page_stats(asp)
        assert stats.pamup_pct == 0.0
        assert stats.n_hot_pages == 0
        assert stats.psp_pct == 0.0

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            AccessTracker(0)

    def test_pamup_4k(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(4, dtype=np.int8))
        tracker = AccessTracker(asp.n_granules)
        update(tracker, 0, np.array([0, 0, 0, 1]), 1.0)
        stats = tracker.hot_page_stats(asp)
        assert stats.pamup_pct == pytest.approx(75.0)

    def test_pamup_coalesces_under_huge(self):
        asp = make_asp()
        tracker = AccessTracker(asp.n_granules)
        # Accesses spread over 4 granules of the same 2MB chunk.
        g = np.array([0, 100, 200, 300])
        update(tracker, 0, g, 1.0)
        asp.premap_pattern_4k(0, np.zeros(512, dtype=np.int8))
        stats_4k = tracker.hot_page_stats(asp)
        assert stats_4k.pamup_pct == pytest.approx(25.0)
        asp.collapse_chunk(0)
        stats_2m = tracker.hot_page_stats(asp)
        assert stats_2m.pamup_pct == pytest.approx(100.0)

    def test_nhp_threshold(self):
        asp = make_asp()
        asp.premap_pattern_2m(0, np.array([0, 0, 1], dtype=np.int8))
        tracker = AccessTracker(asp.n_granules)
        # Chunk 0: 50%, chunk 1: 45%, chunk 2: 5%.
        update(tracker, 0, np.repeat([0, 512, 1024], [50, 45, 5]), 1.0)
        stats = tracker.hot_page_stats(asp, hot_threshold_pct=6.0)
        assert stats.n_hot_pages == 2

    def test_psp_4k_requires_two_threads(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(4, dtype=np.int8))
        tracker = AccessTracker(asp.n_granules)
        update(tracker, 0, np.array([0, 1]), 1.0)
        update(tracker, 1, np.array([1, 2]), 1.0)
        stats = tracker.hot_page_stats(asp)
        # Granule 1 shared: 2 of 4 accesses.
        assert stats.psp_pct == pytest.approx(50.0)

    def test_psp_rises_at_2m_granularity(self):
        asp = make_asp()
        tracker = AccessTracker(asp.n_granules)
        # Threads touch different granules of the same chunk.
        update(tracker, 0, np.array([0, 0]), 1.0)
        update(tracker, 1, np.array([100, 100]), 1.0)
        asp.premap_pattern_4k(0, np.zeros(512, dtype=np.int8))
        assert tracker.hot_page_stats(asp).psp_pct == pytest.approx(0.0)
        asp.collapse_chunk(0)
        assert tracker.hot_page_stats(asp).psp_pct == pytest.approx(100.0)

    def test_weight_scaling(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(2, dtype=np.int8))
        tracker = AccessTracker(asp.n_granules)
        update(tracker, 0, np.array([0]), 10.0)
        update(tracker, 0, np.array([1]), 1.0)
        stats = tracker.hot_page_stats(asp)
        assert stats.pamup_pct == pytest.approx(100.0 * 10 / 11)

    def test_empty_epoch_noop(self):
        tracker = AccessTracker(1024)
        tracker.add_epoch(np.empty(0, dtype=np.int64), np.empty(0))
        assert tracker.weight.sum() == 0

    def test_str_rendering(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(1, dtype=np.int8))
        tracker = AccessTracker(asp.n_granules)
        update(tracker, 0, np.array([0]), 1.0)
        assert "PAMUP" in str(tracker.hot_page_stats(asp))
