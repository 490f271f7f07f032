"""A run's peak memory is its live state.

A run's end-of-run statistics (:meth:`AccessTracker.hot_page_stats`)
once set its peak: two ``int64`` index arrays as long as the address
space and a ``float64`` copy of every 4KB-backed weight, 18 to 20 bytes
per granule on top of what the run keeps (the per-granule form lives on
in ``tests/per_granule_stats.py``).  The invariant checker's address-space
check built the same kind of index arrays every epoch (its per-granule
form lives on in ``tests/per_granule_checks.py``), and its page
conservation gathered every mapped granule's node as ``int64``.  A
policy's sample table kept a ``(pages x nodes)`` float64 count matrix
and built it through an ``int64`` one, the largest transient of a
carrefour-lp interval.  These tests bound those transients under
``tracemalloc``, with the garbage collector off (``refcount_only``) so
a freed array is gone when it is freed.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.analysis.invariants import check_address_space, check_host_conservation
from repro.core.lar_estimator import _granule_columns
from repro.core.metrics import PageSampleTable
from repro.experiments.runner import RunSpec, build_simulation
from repro.hardware.ibs import IbsSamples
from repro.options import CHECK_ENV
from repro.sim.config import SimConfig
from repro.sim.tracker import AccessTracker
from repro.vm.address_space import AddressSpace
from repro.vm.frame_allocator import PhysicalMemory
from repro.vm.layout import GRANULES_PER_2M

GIB = 1 << 30
MIB = 1 << 20
#: The tracker of a quick IS.D@B run.
IS_D_GRANULES = 1_605_632


def _mapped(layout: str) -> AddressSpace:
    asp = AddressSpace(IS_D_GRANULES, PhysicalMemory([8 * GIB]))
    n_huge = 0 if layout == "all-4k" else asp.n_chunks_2m // 2
    asp.premap_pattern_2m(0, np.zeros(n_huge, dtype=np.int8))
    start = n_huge * GRANULES_PER_2M
    nodes = np.zeros(IS_D_GRANULES - start, dtype=np.int8)
    asp.premap_pattern_4k(start, nodes)
    return asp


@pytest.mark.parametrize("layout", ["all-4k", "mixed"])
def test_hot_page_stats_allocates_under_a_float64_per_granule(
    refcount_only, layout
):
    """The call's peak is its bool mask and hot flags, or the mask and
    the compacted shared 4KB weights: here a quarter of the granules
    are shared, 2 bytes per granule compacted in the all-4KB layout."""
    asp = _mapped(layout)
    tracker = AccessTracker(IS_D_GRANULES, 64)
    tracker.weight[:] = np.random.default_rng(0).random(IS_D_GRANULES)
    tracker.tmin[:] = 0
    tracker.tmax[:] = 0
    tracker.tmax[::4] = 1
    tracemalloc.start()
    try:
        stats = tracker.hot_page_stats(asp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert stats.total_weight > 0
    assert peak < IS_D_GRANULES * np.dtype(np.float64).itemsize


def test_premap_pattern_4k_allocates_under_4_mib(refcount_only):
    """Mapping the whole space as 4KB pages on 8 nodes counts each
    node's and each chunk's new mappings without an ``int64`` copy of
    the pattern or of the range: 1.8 MiB here, where the per-node
    ``bincount`` and the per-granule ``np.unique`` took 40.1 MiB."""
    asp = AddressSpace(IS_D_GRANULES, PhysicalMemory([GIB] * 8))
    nodes = (np.arange(IS_D_GRANULES) % 8).astype(np.int8)
    tracemalloc.start()
    try:
        asp.premap_pattern_4k(0, nodes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert asp.mapped_count_2m.sum() == IS_D_GRANULES
    assert peak < 4 * MIB


@pytest.mark.parametrize("layout", ["all-4k", "mixed"])
def test_check_address_space_allocates_under_4_mib(refcount_only, layout):
    """The check reads the 4KB map once, as a ``bool`` mask counted per
    2MB chunk: 1.5 MiB here, where the per-granule form's index arrays
    took 26.0 MiB on the fully 4KB-mapped space."""
    asp = _mapped(layout)
    tracemalloc.start()
    try:
        check_address_space(asp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * MIB


@pytest.mark.parametrize("layout", ["all-4k", "mixed"])
def test_check_host_conservation_allocates_under_4_mib(refcount_only, layout):
    """Page conservation counts each node's 4KB mappings through a
    ``bool`` comparison: 1.5 MiB here, where gathering every mapped
    granule's node as ``int64`` took 13.8 MiB on the fully 4KB-mapped
    space."""
    asp = _mapped(layout)
    tracemalloc.start()
    try:
        check_host_conservation(asp.phys, [asp])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * MIB


def _sample_batch(n_samples: int, n_nodes: int) -> IbsSamples:
    """A synthetic interval's batch over the quick IS.D@B space."""
    rng = np.random.default_rng(0)
    return IbsSamples(
        granule=rng.integers(0, IS_D_GRANULES, n_samples),
        accessing_node=rng.integers(0, n_nodes, n_samples).astype(np.int8),
        home_node=np.zeros(n_samples, dtype=np.int8),
        thread=rng.integers(0, 64, n_samples).astype(np.int16),
        from_dram=np.ones(n_samples, dtype=bool),
        is_write=rng.random(n_samples) < 0.3,
    )


def test_a_sample_table_holds_40_bytes_per_page():
    """Five one-dimensional columns of 8-byte values, each owning its
    buffer; the node matrix made it 88 bytes per page on 8 nodes."""
    table = PageSampleTable.from_samples(
        _sample_batch(20_000, 8), _mapped("mixed"), 8
    )
    columns = (
        table.ids,
        table.totals,
        table.nodes_touching,
        table.dominant,
        table.write_counts,
    )
    assert all(c.base is None and c.shape == table.ids.shape for c in columns)
    assert sum(c.nbytes for c in columns) == 5 * 8 * table.ids.size


#: The per-page totals of one batch grouped by backing page (a sample
#: table) and by 4KB granule (the split estimate's columns).
GROUPED_TOTALS = {
    "backing": lambda samples, asp: PageSampleTable.from_samples(
        samples, asp, 8
    ).totals,
    "4k": lambda samples, asp: _granule_columns(samples, 8)[0],
}


@pytest.mark.parametrize("granularity", sorted(GROUPED_TOTALS))
def test_a_sample_table_builds_under_12_mib(refcount_only, granularity):
    """One grouping of a 150k-sample, 8-node batch (the size of a quick
    carrefour-lp run's largest) peaks at 5.2 MiB as a table by backing
    page, its columns included; the split estimate's two columns by 4KB
    page peak lower than the five-column 4KB table's 8.8 MiB.  The node
    matrix's builds took 13.0 and 19.7 MiB."""
    asp = _mapped("mixed")
    samples = _sample_batch(150_000, 8)
    tracemalloc.start()
    try:
        totals = GROUPED_TOTALS[granularity](samples, asp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert totals.sum() == len(samples)
    assert peak < 12 * MIB


@pytest.mark.parametrize("machine", ["A", "B"])
def test_the_tracker_holds_10_bytes_per_granule(machine):
    """A float64 weight and two one-byte thread bounds per granule on
    machines A (24 threads) and B (64): no per-chunk or per-level
    state.  With a first toucher and shared flag at each of three page
    sizes it held 11 bytes per granule and more per chunk."""
    sim = build_simulation(RunSpec("IS.D", machine, "linux-4k"), SimConfig.quick())
    result = sim.run()
    tracker = sim._stream_bank.tracker(len(result.epoch_times_s))
    held = sum(
        value.nbytes
        for value in vars(tracker).values()
        if isinstance(value, np.ndarray)
    )
    assert held <= 10 * tracker.n_granules


def test_a_quick_runs_peak_is_within_8_mib_of_its_end_state(
    refcount_only, monkeypatch
):
    """What a quick IS.D@B linux-4k run holds at its end (its stream
    bank, tracker fold, address space and result) is all but its peak:
    no step of the run, the end-of-run statistics included, allocates
    8 MiB more than that.  The invariant checker is off; its checks are
    transients of their own."""
    monkeypatch.delenv(CHECK_ENV, raising=False)
    sim = build_simulation(RunSpec("IS.D", "B", "linux-4k"), SimConfig.quick())
    tracemalloc.start()
    try:
        result = sim.run()
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.hot_stats is not None
    assert peak - end < 8 * MIB
