"""Tests for sample tables and sample-based metrics."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hardware.ibs import IbsSamples
from repro.core.lar_estimator import _granule_columns
from repro.core.metrics import PageSampleTable, sample_lar
from repro.vm.address_space import (
    BACKING_ID_1G_OFFSET,
    BACKING_ID_2M_OFFSET,
    AddressSpace,
)
from repro.vm.frame_allocator import PhysicalMemory
from repro.vm.layout import GRANULES_PER_1G, GRANULES_PER_2M
from tests.per_page_kernel import node_matrix_columns

GIB = 1 << 30


def make_asp(n_chunks=4):
    phys = PhysicalMemory([GIB, GIB])
    return AddressSpace(n_chunks * GRANULES_PER_2M, phys)


def make_samples(granules, nodes, threads=None, homes=None, writes=None):
    n = len(granules)
    return IbsSamples(
        granule=np.asarray(granules, dtype=np.int64),
        accessing_node=np.asarray(nodes, dtype=np.int8),
        home_node=np.asarray(homes if homes is not None else nodes, dtype=np.int8),
        thread=np.asarray(threads if threads is not None else [0] * n, dtype=np.int16),
        from_dram=np.ones(n, dtype=bool),
        is_write=None if writes is None else np.asarray(writes, dtype=bool),
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
        """The split estimate's columns group by granule, whatever
        backs it: one sample on granule 0, two nodes on granule 5."""
        asp = make_asp()
        asp.premap_pattern_2m(0, np.array([0], dtype=np.int8))
        samples = make_samples([0, 5, 5], [0, 0, 1])
        totals, single = _granule_columns(samples, 2)
        assert totals.tolist() == [1.0, 2.0]
        assert single.tolist() == [True, False]
        assert PageSampleTable.from_samples(samples, asp, 2).ids.size == 1

    def test_node_counts(self):
        """Page 0 takes one sample from each node: two samples, two
        nodes, and the tie goes to the lower node."""
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(4, dtype=np.int8))
        samples = make_samples([0, 0, 1], [1, 0, 1])
        table = PageSampleTable.from_samples(samples, asp, 2)
        idx0 = list(table.ids).index(0)
        assert table.totals[idx0] == 2.0
        assert table.nodes_touching[idx0] == 2
        assert table.dominant_nodes()[idx0] == 0

    def test_single_and_shared_masks(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(4, dtype=np.int8))
        samples = make_samples([0, 0, 1], [0, 1, 1])
        table = PageSampleTable.from_samples(samples, asp, 2)
        by_id = dict(zip(table.ids.tolist(), table.shared_mask().tolist()))
        assert by_id[0] is True
        assert by_id[1] is False

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


#: Each way a batch is grouped by packed keys: the sample table by
#: backing page, and the split estimate's columns by 4KB granule.
GROUPINGS = {
    "backing": lambda samples, asp, n_nodes: PageSampleTable.from_samples(
        samples, asp, n_nodes
    ),
    "4k": lambda samples, asp, n_nodes: _granule_columns(samples, n_nodes),
}


@pytest.mark.parametrize("granularity", sorted(GROUPINGS))
class TestNodeRange:
    """A node outside ``[0, n_nodes)`` is refused: packed into a key
    (or binned at ``page * n_nodes + node``), it would count as a node
    of the next page."""

    def test_a_node_past_the_last_does_not_alias_into_the_next_page(
        self, granularity
    ):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(4, dtype=np.int8))
        samples = make_samples([0, 1, 1], [2, 0, 0])
        with pytest.raises(ConfigurationError, match="accessing node"):
            GROUPINGS[granularity](samples, asp, 2)
        assert samples.tables == {}

    def test_a_node_past_the_last_on_the_last_page(self, granularity):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(4, dtype=np.int8))
        samples = make_samples([0, 1, 1], [0, 0, 2])
        with pytest.raises(ConfigurationError, match="accessing node"):
            GROUPINGS[granularity](samples, asp, 2)

    def test_a_negative_node(self, granularity):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(4, dtype=np.int8))
        samples = make_samples([0, 1], [0, -1])
        with pytest.raises(ConfigurationError, match="accessing node"):
            GROUPINGS[granularity](samples, asp, 2)


COLUMNS = ("ids", "totals", "nodes_touching", "dominant", "write_counts")
#: The oracle space's regions, as granule ranges: two 1GB pages (ids
#: ``BACKING_ID_1G_OFFSET`` and the next), 2MB pages, then 4KB pages.
REGIONS = {
    "1g": (0, 2 * GRANULES_PER_1G),
    "2m": (2 * GRANULES_PER_1G, 2 * GRANULES_PER_1G + 64 * GRANULES_PER_2M),
    "4k": (2 * GRANULES_PER_1G + 64 * GRANULES_PER_2M, 3 * GRANULES_PER_1G),
    "mixed": (0, 3 * GRANULES_PER_1G),
}


@pytest.fixture(scope="module")
def oracle_space():
    asp = AddressSpace(3 * GRANULES_PER_1G, PhysicalMemory([4 * GIB, 4 * GIB]))
    asp.map_range_1g(0, GRANULES_PER_1G, 0)
    asp.map_range_1g(GRANULES_PER_1G, GRANULES_PER_1G, 1)
    chunk = 2 * GRANULES_PER_1G // GRANULES_PER_2M
    asp.premap_pattern_2m(chunk, np.arange(64, dtype=np.int8) % 2)
    start, stop = REGIONS["4k"]
    asp.premap_pattern_4k(start, np.zeros(stop - start, dtype=np.int8))
    return asp


def assert_matches_matrix(samples, asp, n_nodes, granularity="backing"):
    """The table equals the node matrix's row reductions, column for
    column, dtypes included; at ``4k``, the split estimate's columns
    equal the granule matrix's totals and single-node flags."""
    expected = node_matrix_columns(samples, asp, n_nodes, granularity)
    if granularity == "4k":
        totals, single = _granule_columns(samples, n_nodes)
        assert totals.dtype == expected["totals"].dtype
        assert np.array_equal(totals, expected["totals"])
        assert np.array_equal(single, expected["nodes_touching"] == 1)
        return None
    table = PageSampleTable.from_samples(samples, asp, n_nodes)
    for name in COLUMNS:
        column = getattr(table, name)
        assert column.dtype == expected[name].dtype, name
        assert np.array_equal(column, expected[name]), name
    assert table.n_samples == len(samples)
    return table


def random_batch(rng, n, n_nodes, lo, hi, n_pages=None):
    """``n`` samples over granules in ``[lo, hi)``: spread over the
    range, or over ``n_pages`` random 4KB pages of it."""
    if n_pages is None:
        granules = rng.integers(lo, hi, n)
    else:
        granules = rng.choice(rng.integers(lo, hi, n_pages), n)
    return make_samples(
        granules,
        rng.integers(0, n_nodes, n),
        writes=rng.random(n) < 0.2,
    )


@pytest.mark.parametrize("n_nodes", [1, 2, 4, 8])
class TestMatrixOracle:
    """The one-sort table against the ``(pages x nodes)`` matrix it
    replaced (``tests/per_page_kernel.py``)."""

    @pytest.mark.parametrize("region", sorted(REGIONS))
    def test_random_batches(self, oracle_space, n_nodes, region):
        lo, hi = REGIONS[region]
        rng = np.random.default_rng([n_nodes, sorted(REGIONS).index(region)])
        for granularity in ("backing", "4k"):
            for n_pages in (None, 40):
                samples = random_batch(rng, 3000, n_nodes, lo, hi, n_pages)
                assert_matches_matrix(samples, oracle_space, n_nodes, granularity)

    def test_ids_near_the_1g_offset(self, oracle_space, n_nodes):
        rng = np.random.default_rng(n_nodes)
        samples = random_batch(rng, 500, n_nodes, *REGIONS["1g"])
        table = assert_matches_matrix(samples, oracle_space, n_nodes)
        assert table.ids.tolist() == [BACKING_ID_1G_OFFSET, BACKING_ID_1G_OFFSET + 1]
        assert table.totals.sum() == 500

    @pytest.mark.parametrize("granularity", ["backing", "4k"])
    def test_empty_batch(self, oracle_space, n_nodes, granularity):
        table = assert_matches_matrix(
            IbsSamples.empty(), oracle_space, n_nodes, granularity
        )
        if table is not None:
            assert table.ids.size == 0
            assert table.hot_mask(6.0).size == table.read_only_mask().size == 0

    @pytest.mark.parametrize("granularity", ["backing", "4k"])
    def test_one_sample(self, oracle_space, n_nodes, granularity):
        node = n_nodes - 1
        samples = make_samples([REGIONS["2m"][0] + 7], [node], writes=[True])
        table = assert_matches_matrix(samples, oracle_space, n_nodes, granularity)
        if table is not None:
            assert table.totals.tolist() == [1.0]
            assert table.dominant_nodes().tolist() == [node]
            assert table.write_counts.tolist() == [1.0]

    def test_ties_go_to_the_lowest_node(self, oracle_space, n_nodes):
        """Each page takes the same number of samples from each node of
        a random subset; its dominant node is the subset's lowest."""
        rng = np.random.default_rng(100 + n_nodes)
        lo = REGIONS["4k"][0]
        granules, nodes, lowest = [], [], []
        for page in range(lo, lo + 200):
            subset = np.flatnonzero(rng.random(n_nodes) < 0.5)
            if subset.size == 0:
                subset = np.array([n_nodes - 1])
            k = int(rng.integers(1, 4))
            granules += [page] * (k * subset.size)
            nodes += np.repeat(subset, k).tolist()
            lowest.append(int(subset[0]))
        order = rng.permutation(len(granules))
        samples = make_samples(np.array(granules)[order], np.array(nodes)[order])
        table = assert_matches_matrix(samples, oracle_space, n_nodes)
        assert table.dominant_nodes().tolist() == lowest

    def test_all_write_and_no_write_pages(self, oracle_space, n_nodes):
        """Even 4KB pages take only stores, odd ones only loads."""
        rng = np.random.default_rng(200 + n_nodes)
        lo = REGIONS["4k"][0]
        granules = lo + rng.integers(0, 300, 4000)
        samples = make_samples(
            granules, rng.integers(0, n_nodes, 4000), writes=granules % 2 == 0
        )
        table = assert_matches_matrix(samples, oracle_space, n_nodes)
        written = table.ids % 2 == 0
        assert np.array_equal(table.write_counts[written], table.totals[written])
        assert not table.write_counts[~written].any()
        assert np.array_equal(table.read_only_mask(), ~written)


class TestSampleMetrics:
    def test_lar_empty(self):
        assert sample_lar(IbsSamples.empty()) == 100.0

    def test_lar(self):
        samples = make_samples([0, 1, 2, 3], [0, 0, 1, 1], homes=[0, 1, 1, 0])
        assert sample_lar(samples) == pytest.approx(50.0)
