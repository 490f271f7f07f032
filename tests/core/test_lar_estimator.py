"""Tests for the what-if LAR estimator (paper Section 3.2.1)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hardware.ibs import IbsSamples
from repro.core.lar_estimator import estimate_lar_after_carrefour
from repro.vm.address_space import AddressSpace
from repro.vm.frame_allocator import PhysicalMemory
from repro.vm.layout import GRANULES_PER_2M
from tests.per_page_kernel import node_matrix_columns

GIB = 1 << 30


def make_asp(n_chunks=4, huge=True):
    phys = PhysicalMemory([GIB, GIB])
    asp = AddressSpace(n_chunks * GRANULES_PER_2M, phys)
    if huge:
        asp.premap_pattern_2m(0, np.zeros(n_chunks, dtype=np.int8))
    return asp


def make_samples(granules, nodes, homes):
    n = len(granules)
    return IbsSamples(
        granule=np.asarray(granules, dtype=np.int64),
        accessing_node=np.asarray(nodes, dtype=np.int8),
        home_node=np.asarray(homes, dtype=np.int8),
        thread=np.zeros(n, dtype=np.int16),
        from_dram=np.ones(n, dtype=bool),
    )


class TestEstimator:
    def test_invalid_nodes(self):
        with pytest.raises(ConfigurationError):
            estimate_lar_after_carrefour(IbsSamples.empty(), make_asp(), 0)

    def test_empty_samples(self):
        est = estimate_lar_after_carrefour(IbsSamples.empty(), make_asp(), 2)
        assert est.current == 100.0
        assert est.n_samples == 0

    def test_single_node_pages_predicted_local(self):
        # All samples from node 1, pages currently on node 0 -> current
        # LAR 0, but migrating makes everything local.
        asp = make_asp()
        samples = make_samples([0, 1, 2], [1, 1, 1], [0, 0, 0])
        est = estimate_lar_after_carrefour(samples, asp, 2)
        assert est.current == 0.0
        assert est.with_carrefour == pytest.approx(100.0)
        assert est.carrefour_gain == pytest.approx(100.0)

    def test_shared_pages_predicted_interleaved(self):
        # One 2MB page sampled from both nodes: interleave -> 1/2 local.
        asp = make_asp()
        samples = make_samples([0, 1], [0, 1], [0, 0])
        est = estimate_lar_after_carrefour(samples, asp, 2)
        assert est.with_carrefour == pytest.approx(50.0)

    def test_split_separates_false_sharing(self):
        # Two 4KB granules of the same 2MB page, each private to one
        # node: at 2MB granularity the page is shared (1/2 local), but
        # split it becomes two single-node pages (100% local).
        asp = make_asp()
        samples = make_samples([0, 0, 7, 7], [0, 0, 1, 1], [0, 0, 0, 0])
        est = estimate_lar_after_carrefour(samples, asp, 2)
        assert est.with_carrefour == pytest.approx(50.0)
        assert est.with_carrefour_and_split == pytest.approx(100.0)
        assert est.split_gain > est.carrefour_gain

    def test_sparse_sampling_optimism(self):
        # The paper's SSCA failure mode: each sub-page gets one sample,
        # so every sub-page looks single-node and the split estimate is
        # wildly optimistic even though the data is genuinely shared.
        asp = make_asp()
        rng = np.random.default_rng(0)
        granules = np.arange(256)
        nodes = rng.integers(0, 2, size=256)
        samples = make_samples(granules, nodes, np.zeros(256))
        est = estimate_lar_after_carrefour(samples, asp, 2)
        assert est.with_carrefour_and_split == pytest.approx(100.0)
        # At 2MB granularity the page is visibly shared.
        assert est.with_carrefour == pytest.approx(50.0)

    def test_gains_relative_to_current(self):
        asp = make_asp()
        samples = make_samples([0, 1], [0, 1], [0, 1])
        est = estimate_lar_after_carrefour(samples, asp, 2)
        assert est.current == pytest.approx(100.0)
        assert est.carrefour_gain == pytest.approx(est.with_carrefour - 100.0)


class TestSplitEstimate:
    """The split estimate sums the 4KB grouping's per-page totals and
    single-node flags, in ascending page order, as the five-column 4KB
    sample table did: bit for bit, against the matrix oracle."""

    @pytest.mark.parametrize("n_nodes", [1, 2, 4, 8])
    def test_bit_identical_to_the_4k_table(self, n_nodes):
        asp = make_asp(n_chunks=8)
        rng = np.random.default_rng(n_nodes)
        for n_samples, n_pages in ((5000, None), (3000, 60), (1, None)):
            pages = np.arange(asp.n_granules)
            if n_pages is not None:
                pages = rng.choice(pages, n_pages)
            samples = make_samples(
                rng.choice(pages, n_samples),
                rng.integers(0, n_nodes, n_samples),
                rng.integers(0, n_nodes, n_samples),
            )
            columns = node_matrix_columns(samples, asp, n_nodes, "4k")
            totals = columns["totals"]
            single = columns["nodes_touching"] == 1
            local = float(totals[single].sum())
            local += float(totals[~single].sum()) / n_nodes
            want = 100.0 * local / n_samples
            got = estimate_lar_after_carrefour(samples, asp, n_nodes)
            assert got.with_carrefour_and_split.hex() == want.hex()
