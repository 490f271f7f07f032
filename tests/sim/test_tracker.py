"""Tests for the ground-truth access tracker (PAMUP / NHP / PSP)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import RunSpec, build_simulation
from repro.sim import tracker as tracker_module
from repro.sim.config import SimConfig
from repro.sim.tracker import AccessTracker
from repro.vm.address_space import AddressSpace
from repro.vm.frame_allocator import PhysicalMemory
from repro.vm.layout import (
    CHUNKS_2M_PER_1G,
    GRANULES_PER_1G,
    GRANULES_PER_2M,
    SHIFT_2M,
)
from tests import per_granule_stats
from tests.per_granule_stats import stats_bits
from tests.per_thread_streams import update

GIB = 1 << 30


def make_asp(n_chunks=8):
    phys = PhysicalMemory([GIB, GIB])
    return AddressSpace(n_chunks * GRANULES_PER_2M, phys)


class TestTracker:
    def test_empty_stats(self):
        tracker = AccessTracker(1024, 4)
        asp = make_asp(2)
        stats = tracker.hot_page_stats(asp)
        assert stats.pamup_pct == 0.0
        assert stats.n_hot_pages == 0
        assert stats.psp_pct == 0.0

    def test_invalid_size(self):
        with pytest.raises(ConfigurationError):
            AccessTracker(0, 4)

    def test_invalid_thread_count(self):
        with pytest.raises(ConfigurationError):
            AccessTracker(1024, 0)

    @pytest.mark.parametrize(
        "n_threads, dtype",
        [(1, np.int8), (64, np.int8), (128, np.int8), (129, np.int16),
         (32768, np.int16), (32769, np.int32)],
    )
    def test_bounds_take_the_narrowest_signed_type(self, n_threads, dtype):
        """Every thread id and the -1 of an untouched granule fit."""
        tracker = AccessTracker(8, n_threads)
        assert tracker.tmin.dtype == tracker.tmax.dtype == dtype
        assert np.iinfo(dtype).max >= n_threads - 1
        update(tracker, n_threads - 1, np.array([3]), 1.0)
        update(tracker, 0, np.array([3, 5]), 1.0)
        assert (tracker.tmin[[3, 5]] == 0).all()
        assert tracker.tmax[3] == n_threads - 1
        assert tracker.tmax[5] == 0
        assert (tracker.tmax[[0, 1, 2, 4, 6, 7]] == -1).all()

    def test_pamup_4k(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(4, dtype=np.int8))
        tracker = AccessTracker(asp.n_granules, 4)
        update(tracker, 0, np.array([0, 0, 0, 1]), 1.0)
        stats = tracker.hot_page_stats(asp)
        assert stats.pamup_pct == pytest.approx(75.0)

    def test_pamup_coalesces_under_huge(self):
        asp = make_asp()
        tracker = AccessTracker(asp.n_granules, 4)
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
        tracker = AccessTracker(asp.n_granules, 4)
        # Chunk 0: 50%, chunk 1: 45%, chunk 2: 5%.
        update(tracker, 0, np.repeat([0, 512, 1024], [50, 45, 5]), 1.0)
        stats = tracker.hot_page_stats(asp, hot_threshold_pct=6.0)
        assert stats.n_hot_pages == 2

    def test_psp_4k_requires_two_threads(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(4, dtype=np.int8))
        tracker = AccessTracker(asp.n_granules, 4)
        update(tracker, 0, np.array([0, 1]), 1.0)
        update(tracker, 1, np.array([1, 2]), 1.0)
        stats = tracker.hot_page_stats(asp)
        # Granule 1 shared: 2 of 4 accesses.
        assert stats.psp_pct == pytest.approx(50.0)

    def test_psp_rises_at_2m_granularity(self):
        asp = make_asp()
        tracker = AccessTracker(asp.n_granules, 4)
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
        tracker = AccessTracker(asp.n_granules, 4)
        update(tracker, 0, np.array([0]), 10.0)
        update(tracker, 0, np.array([1]), 1.0)
        stats = tracker.hot_page_stats(asp)
        assert stats.pamup_pct == pytest.approx(100.0 * 10 / 11)

    def test_empty_epoch_noop(self):
        tracker = AccessTracker(1024, 4)
        empty = np.empty(0, dtype=np.int64)
        tracker.add_epoch(empty, empty, np.empty(0))
        assert tracker.weight.sum() == 0
        assert (tracker.tmax == -1).all()

    def test_an_epoch_widens_each_granules_bounds(self):
        """A granule's run of pairs gives its lowest and highest thread
        this epoch; they widen, never narrow, what earlier epochs left."""
        tracker = AccessTracker(8, 4)
        tracker.add_epoch(
            np.array([1, 1, 4, 6, 6, 6]),
            np.array([2, 3, 1, 0, 1, 3]),
            np.ones(6),
        )
        tracker.add_epoch(np.array([1, 4]), np.array([0, 1]), np.ones(2))
        np.testing.assert_array_equal(tracker.tmin[[1, 4, 6]], [0, 1, 0])
        np.testing.assert_array_equal(tracker.tmax[[1, 4, 6]], [3, 1, 3])
        np.testing.assert_array_equal(tracker.weight[[1, 4, 6]], [3, 2, 3])
        untouched = [0, 2, 3, 5, 7]
        assert (tracker.tmin[untouched] == np.iinfo(np.int8).max).all()
        assert (tracker.tmax[untouched] == -1).all()

    def test_str_rendering(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(1, dtype=np.int8))
        tracker = AccessTracker(asp.n_granules, 4)
        update(tracker, 0, np.array([0]), 1.0)
        assert "PAMUP" in str(tracker.hot_page_stats(asp))


#: Page-size layouts of the synthetic address spaces: ``ragged`` is the
#: mixed layout over a granule count that is not a multiple of 512.
LAYOUTS = ("all-4k", "all-2m", "mixed", "1g", "ragged")
#: ``spread``: four threads touch random granules, so pages are shared
#: at every level; ``zero``: nothing is touched; ``one-hot``: one
#: granule takes about 10% of the accesses, so one page, of whatever
#: size backs it, is above the 6% threshold; ``solo``: one thread
#: touches random granules, so no page of any size is shared.
PATTERNS = ("spread", "zero", "one-hot", "solo")


def layout_space(layout):
    """An address space mapped in one of :data:`LAYOUTS`."""
    n_granules = 40 * GRANULES_PER_2M
    if layout == "1g":
        n_granules += GRANULES_PER_1G
    elif layout == "ragged":
        n_granules += 300
    asp = AddressSpace(n_granules, PhysicalMemory([2 * GIB, 2 * GIB]))
    start = 0
    if layout == "1g":
        asp.map_range_1g(0, GRANULES_PER_1G, 0)
        start = GRANULES_PER_1G
    n_chunks = (n_granules - start) // GRANULES_PER_2M
    n_huge = {"all-4k": 0, "all-2m": n_chunks}.get(layout, n_chunks // 2)
    nodes = (np.arange(n_granules) % 2).astype(np.int8)
    asp.premap_pattern_2m(start >> SHIFT_2M, nodes[:n_huge])
    start += n_huge * GRANULES_PER_2M
    asp.premap_pattern_4k(start, nodes[start:])
    return asp


def tracked(asp, pattern):
    """A tracker over ``asp`` fed with one of :data:`PATTERNS`."""
    tracker = AccessTracker(asp.n_granules, 4)
    if pattern == "zero":
        return tracker
    rng = np.random.default_rng(7)
    if pattern == "solo":
        update(tracker, 2, rng.integers(0, asp.n_granules, 5000), 1.0)
        return tracker
    for thread in range(4):
        granules = rng.integers(0, asp.n_granules, 5000)
        update(tracker, thread, granules, 0.37 + thread)
    if pattern == "one-hot":
        update(tracker, 0, np.full(4000, 5), 1.0)
    return tracker


class TestChunkGranularity:
    """The shipped statistics match the per-granule oracle bit for bit."""

    @pytest.mark.parametrize("pattern", PATTERNS)
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_matches_the_per_granule_oracle(self, layout, pattern):
        asp = layout_space(layout)
        tracker = tracked(asp, pattern)
        for pct in (6.0, 0.01):
            assert stats_bits(tracker.hot_page_stats(asp, pct)) == stats_bits(
                per_granule_stats.hot_page_stats(tracker, asp, pct)
            )

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_the_cases_reach_what_they_name(self, layout):
        asp = layout_space(layout)
        assert asp.giga.any() == (layout == "1g")
        assert asp.huge.any() == (layout != "all-4k")
        assert (asp.node4k >= 0).any() == (layout != "all-2m")
        assert (asp.n_granules % GRANULES_PER_2M != 0) == (layout == "ragged")
        spread = tracked(asp, "spread")
        for level, shared in per_granule_stats.shared_flags(spread).items():
            assert shared.any(), level
        solo = tracked(asp, "solo")
        for level, shared in per_granule_stats.shared_flags(solo).items():
            assert not shared.any(), level
        assert solo.hot_page_stats(asp).total_weight > 0
        assert tracked(asp, "zero").hot_page_stats(asp).total_weight == 0.0
        assert tracked(asp, "one-hot").hot_page_stats(asp).n_hot_pages == 1

    def test_a_partial_last_chunk_sums_as_the_padded_copy_did(self):
        """No page of a partial chunk is ever 2MB- or 1GB-backed, so
        its sum reaches no statistic: compare the sums directly."""
        tracker = tracked(layout_space("ragged"), "spread")
        group_sums = tracker_module._group_sums
        chunk_w = group_sums(tracker.weight, GRANULES_PER_2M)
        assert chunk_w.tobytes() == (
            per_granule_stats.chunk_weights(tracker).tobytes()
        )
        pad = np.zeros(CHUNKS_2M_PER_1G - chunk_w.size)
        padded = np.concatenate([chunk_w, pad])
        assert group_sums(chunk_w, CHUNKS_2M_PER_1G).tobytes() == (
            padded.reshape(-1, CHUNKS_2M_PER_1G).sum(axis=1).tobytes()
        )


#: Quick runs whose end-of-run statistics are checked against the
#: oracle: all-4KB, THP, a policy that splits and promotes pages, and
#: 1GB-backed.
ORACLE_RUNS = (
    RunSpec("IS.D", "B", "thp"),
    RunSpec("IS.D", "B", "linux-4k"),
    RunSpec("CG.D", "A", "carrefour-2m"),
    RunSpec("SSCA.20", "B", "linux-4k", backing_1g=True),
)


@pytest.mark.parametrize("spec", ORACLE_RUNS, ids=RunSpec.describe)
def test_a_quick_run_matches_the_per_granule_oracle(spec):
    sim = build_simulation(spec, SimConfig.quick())
    result = sim.run()
    assert sim.asp.giga.any() == spec.backing_1g
    tracker = sim._stream_bank.tracker(len(result.epoch_times_s))
    assert stats_bits(result.hot_stats) == stats_bits(
        per_granule_stats.hot_page_stats(tracker, sim.asp)
    )
