"""Tests for sample tables and sample-based metrics."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hardware.ibs import IbsSamples
from repro.core.metrics import PageSampleTable, sample_lar
from repro.vm.address_space import AddressSpace, BACKING_ID_2M_OFFSET
from repro.vm.frame_allocator import PhysicalMemory
from repro.vm.layout import GRANULES_PER_2M

GIB = 1 << 30


def make_asp(n_chunks=4):
    phys = PhysicalMemory([GIB, GIB])
    return AddressSpace(n_chunks * GRANULES_PER_2M, phys)


def make_samples(granules, nodes, threads=None, homes=None):
    n = len(granules)
    return IbsSamples(
        granule=np.asarray(granules, dtype=np.int64),
        accessing_node=np.asarray(nodes, dtype=np.int8),
        home_node=np.asarray(homes if homes is not None else nodes, dtype=np.int8),
        thread=np.asarray(threads if threads is not None else [0] * n, dtype=np.int16),
        from_dram=np.ones(n, dtype=bool),
    )


class TestPageSampleTable:
    def test_empty(self):
        table = PageSampleTable.from_samples(IbsSamples.empty(), make_asp(), 2)
        assert table.n_samples == 0
        assert table.ids.size == 0

    def test_groups_by_backing(self):
        asp = make_asp()
        asp.premap_pattern_2m(0, np.array([0], dtype=np.int8))
        samples = make_samples([0, 5, 100], [0, 0, 1])
        table = PageSampleTable.from_samples(samples, asp, 2)
        assert table.ids.tolist() == [BACKING_ID_2M_OFFSET]
        assert table.totals[0] == 3

    def test_4k_granularity_ignores_backing(self):
        asp = make_asp()
        asp.premap_pattern_2m(0, np.array([0], dtype=np.int8))
        samples = make_samples([0, 5, 5], [0, 0, 1])
        table = PageSampleTable.from_samples(samples, asp, 2, granularity="4k")
        assert table.ids.tolist() == [0, 5]

    def test_invalid_granularity(self):
        with pytest.raises(ConfigurationError):
            PageSampleTable.from_samples(IbsSamples.empty(), make_asp(), 2, "8k")

    def test_node_counts(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(4, dtype=np.int8))
        samples = make_samples([0, 0, 1], [0, 1, 1])
        table = PageSampleTable.from_samples(samples, asp, 2)
        idx0 = list(table.ids).index(0)
        assert table.node_counts[idx0].tolist() == [1.0, 1.0]

    def test_single_and_shared_masks(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(4, dtype=np.int8))
        samples = make_samples([0, 0, 1], [0, 1, 1])
        table = PageSampleTable.from_samples(samples, asp, 2)
        by_id = dict(zip(table.ids.tolist(), table.shared_mask().tolist()))
        assert by_id[0] is True
        assert by_id[1] is False

    def test_thread_counts(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(4, dtype=np.int8))
        samples = make_samples([0, 0, 1], [0, 0, 0], threads=[0, 1, 1])
        table = PageSampleTable.from_samples(samples, asp, 2)
        by_id = dict(zip(table.ids.tolist(), table.thread_counts.tolist()))
        assert by_id[0] == 2
        assert by_id[1] == 1

    def test_wide_thread_ids_do_not_collide(self):
        # Thread ids past the old fixed 65536 pair multiplier used to
        # alias (page, thread) pairs across pages; the multiplier now
        # widens with the data.
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(4, dtype=np.int8))
        samples = IbsSamples(
            granule=np.array([0, 0, 1], dtype=np.int64),
            accessing_node=np.zeros(3, dtype=np.int8),
            home_node=np.zeros(3, dtype=np.int8),
            thread=np.array([0, 70_000, 70_000], dtype=np.int64),
            from_dram=np.ones(3, dtype=bool),
        )
        table = PageSampleTable.from_samples(samples, asp, 2)
        by_id = dict(zip(table.ids.tolist(), table.thread_counts.tolist()))
        assert by_id[0] == 2
        assert by_id[1] == 1

    def test_negative_thread_ids_rejected(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(4, dtype=np.int8))
        samples = IbsSamples(
            granule=np.array([0], dtype=np.int64),
            accessing_node=np.zeros(1, dtype=np.int8),
            home_node=np.zeros(1, dtype=np.int8),
            thread=np.array([-1], dtype=np.int64),
            from_dram=np.ones(1, dtype=bool),
        )
        with pytest.raises(ConfigurationError):
            PageSampleTable.from_samples(samples, asp, 2)

    def test_hot_mask(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(4, dtype=np.int8))
        samples = make_samples([0] * 9 + [1], [0] * 10)
        table = PageSampleTable.from_samples(samples, asp, 2)
        hot = dict(zip(table.ids.tolist(), table.hot_mask(50.0).tolist()))
        assert hot[0] is True
        assert hot[1] is False

    def test_dominant_nodes(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(4, dtype=np.int8))
        samples = make_samples([0, 0, 0], [1, 1, 0])
        table = PageSampleTable.from_samples(samples, asp, 2)
        assert table.dominant_nodes()[0] == 1


class TestSampleMetrics:
    def test_lar_empty(self):
        assert sample_lar(IbsSamples.empty()) == 100.0

    def test_lar(self):
        samples = make_samples([0, 1, 2, 3], [0, 0, 1, 1], homes=[0, 1, 1, 0])
        assert sample_lar(samples) == pytest.approx(50.0)
