"""Tests for the epoch-batched stream banks.

The contract under test is *bit-identity*: a bank must be
indistinguishable from per-thread generation (the oracles in
``tests/per_thread_streams.py``) — same granule streams, same write
masks, same post-generation RNG states (the IBS sampler continues
those generators), and the same access-tracker state from each row's
aggregates (``StreamBank._aggregate_row``, run as the bank folds the
row).  The tracker's per-granule thread bounds must also give every
page the sharing flag that merging each row's first/shared summaries
gave it (the :class:`~tests.per_thread_streams.FirstShared` oracle).
"""

from __future__ import annotations

import gc
import os
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

import repro
from repro._util import run_starts
from repro.experiments.parallel import GridRunner
from repro.experiments.runner import RunSpec
from repro.hardware.machines import machine_by_name
from repro.options import CACHE_ENABLE_ENV, STREAM_CACHE_ENV
from repro.sim.config import SimConfig
from repro.sim.tracker import AccessTracker, _group_bounds
from repro.vm.layout import SHIFT_1G, SHIFT_2M
from repro.workloads.base import CostProfile, WorkloadInstance
from repro.workloads.regions import (
    HotRegion,
    PartitionedRegion,
    SharedRegion,
    StreamRegion,
)
from repro.workloads.registry import available_workloads, get_workload
from repro.workloads.streambank import (
    EPOCH_WINDOW,
    _MAX_BLOCKS_PER_BANK,
    StreamBank,
    _offsets,
    bank_fingerprint,
    clear_stream_banks,
    get_stream_bank,
    weight_scale,
)
from repro.workloads.trace import TraceData, TraceRecorder, TraceWorkloadInstance
from tests.per_thread_streams import (
    LEVELS,
    SIM_SEED,
    bank_sharing,
    row_sharing,
    sequential_rows,
    update,
)

MIB = 1 << 20
LENGTH = 192

#: One factory per builtin region type (plus a mixed composite).  The
#: factories build fresh region objects each call because binding to an
#: instance mutates them.
REGION_FACTORIES = {
    "partitioned": lambda: [
        PartitionedRegion("p", 4 * MIB, 1.0, block_bytes=64 * 1024)
    ],
    "shared": lambda: [
        SharedRegion("s", 8 * MIB, 1.0, zipf_s=1.1, clustered=False)
    ],
    "hot": lambda: [HotRegion("h", 2 * MIB, 1.0)],
    "stream": lambda: [
        StreamRegion("st", bytes_per_thread=4 * MIB, access_share=1.0,
                     grow_epochs=3)
    ],
    "mixed": lambda: [
        PartitionedRegion("p", 4 * MIB, 0.5, block_bytes=64 * 1024),
        SharedRegion("s", 4 * MIB, 0.3, zipf_s=0.8),
        StreamRegion("st", bytes_per_thread=2 * MIB, access_share=0.2,
                     grow_epochs=2),
    ],
}


def make_instance(regions, machine, total_epochs=4, **kwargs):
    cost = CostProfile(cpu_seconds=0.1, mem_accesses=1e6, dram_accesses=1e5)
    return WorkloadInstance(
        "test", machine, regions, cost, total_epochs=total_epochs, **kwargs
    )


def row_aggregates(bank, epoch):
    """One epoch's ``(keys, counts)`` from the bank's row helper, the
    row filled first."""
    return bank._aggregate_row(*bank._ensure_row(epoch))


def new_tracker(bank):
    return AccessTracker(bank.instance.n_granules, bank.n_threads)


def row_fold(bank, epoch):
    """A fresh tracker with only ``epoch``'s row folded in."""
    tracker = new_tracker(bank)
    bank._fold_rows(tracker, epoch, epoch + 1)
    return tracker


def page_bounds(tracker, level):
    """Each page's ``(lowest, highest)`` toucher at one of ``LEVELS``."""
    low, high = tracker.tmin, tracker.tmax
    if level != "4k":
        low, high = _group_bounds(low, high, 1 << SHIFT_2M)
    if level == "1g":
        low, high = _group_bounds(low, high, 1 << (SHIFT_1G - SHIFT_2M))
    return low, high


def shared_flags(tracker):
    """Each level's shared flags, derived from the thread bounds."""
    flags = {}
    for level in LEVELS:
        low, high = page_bounds(tracker, level)
        flags[level] = high > low
    return flags


def split_keys(bank, keys):
    """A row's packed aggregation keys as ``(granules, threads)``."""
    return keys >> bank._tbits, keys & ((1 << bank._tbits) - 1)


def assert_bank_matches_sequential(bank, instance, epoch, length=LENGTH):
    streams, writes, sizes = bank.epoch_arrays(epoch)
    ibs = bank.ibs_states(epoch)
    for t, (ref_g, ref_w, ref_state) in enumerate(
        sequential_rows(instance, epoch, length)
    ):
        n = int(sizes[t])
        assert n == ref_g.size
        np.testing.assert_array_equal(streams[t, :n], ref_g)
        np.testing.assert_array_equal(writes[t, :n], ref_w)
        # Rows past the stream size stay zeroed (epoch_stream_into
        # relies on pre-zeroed write rows).
        assert not writes[t, n:].any()
        assert ibs[t] == ref_state


@pytest.fixture(autouse=True)
def _fresh_banks():
    clear_stream_banks()
    yield
    clear_stream_banks()


class TestBatchedEquivalence:
    @pytest.mark.parametrize("kind", sorted(REGION_FACTORIES))
    def test_matches_sequential(self, kind, tiny_topo):
        inst = make_instance(REGION_FACTORIES[kind](), tiny_topo)
        bank = StreamBank(inst, SIM_SEED, LENGTH)
        for epoch in (0, 1, 3):
            assert_bank_matches_sequential(bank, inst, epoch)

    def test_write_fraction_zero(self, tiny_topo):
        """wf=0 regions draw no write randomness on either path."""
        inst = make_instance(
            [SharedRegion("s", 4 * MIB, 1.0, write_fraction=0.0)], tiny_topo
        )
        bank = StreamBank(inst, SIM_SEED, LENGTH)
        for epoch in (0, 2):
            assert_bank_matches_sequential(bank, inst, epoch)
        _, writes, sizes = bank.epoch_arrays(0)
        assert not writes.any()
        assert (sizes == LENGTH).all()

    def test_trace_replay_matches_sequential(self, tiny_topo):
        """A replay subsamples its recorded rows exactly as reading
        them off the trace does."""
        inst = make_instance(REGION_FACTORIES["mixed"](), tiny_topo,
                             total_epochs=3)
        trace = TraceRecorder().record(inst, stream_length=96)
        replay = TraceWorkloadInstance("replayed", tiny_topo, trace)
        bank = StreamBank(replay, SIM_SEED, 64)
        for epoch in range(replay.total_epochs):
            assert_bank_matches_sequential(bank, replay, epoch, length=64)

    def test_empty_streams(self, tiny_topo):
        """An epoch nobody touches yields empty rows and empty columns."""
        cost = CostProfile(cpu_seconds=0.1, mem_accesses=1e6, dram_accesses=1e5)
        trace = TraceData(
            n_threads=2,
            n_granules=64,
            total_epochs=2,
            thread=np.array([0, 0, 1], dtype=np.int64),
            epoch=np.zeros(3, dtype=np.int64),
            granule=np.array([1, 2, 3], dtype=np.int64),
            is_write=np.array([False, True, False]),
            cost=cost,
            tlb_run_length=8.0,
        )
        replay = TraceWorkloadInstance("sparse", tiny_topo, trace)
        bank = StreamBank(replay, SIM_SEED, 16)
        _, writes, sizes = bank.epoch_arrays(1)
        assert (sizes == 0).all()
        assert not writes.any()
        keys, counts = row_aggregates(bank, 1)
        assert keys.size == counts.size == 0
        tracker = row_fold(bank, 1)
        assert (tracker.tmin == np.iinfo(tracker.tmin.dtype).max).all()
        assert (tracker.tmax == -1).all()
        assert not tracker.weight.any()


def assert_columns_match_numpy_unique(bank, epoch):
    """A row's keys are sorted and distinct, and each thread's entries,
    in key (granule) order, are its ``np.unique(stream,
    return_counts=True)``."""
    streams, _, sizes = bank.epoch_arrays(epoch)
    keys, counts = row_aggregates(bank, epoch)
    assert (np.diff(keys) > 0).all()
    ids, threads = split_keys(bank, keys)
    for t in range(bank.n_threads):
        ref_u, ref_c = np.unique(streams[t, : int(sizes[t])],
                                 return_counts=True)
        np.testing.assert_array_equal(ids[threads == t], ref_u)
        np.testing.assert_array_equal(counts[threads == t], ref_c)


class TestTrackerColumns:
    def test_columns_match_numpy_unique(self, tiny_topo):
        """Full rows: every thread draws ``length`` accesses."""
        inst = make_instance(REGION_FACTORIES["mixed"](), tiny_topo)
        bank = StreamBank(inst, SIM_SEED, LENGTH)
        for epoch in range(inst.total_epochs):
            assert (bank.epoch_arrays(epoch)[2] == LENGTH).all()
            assert_columns_match_numpy_unique(bank, epoch)

    def test_ragged_replay_row(self, tiny_topo):
        """Threads of a replay draw different numbers of accesses, one
        of them none."""
        bank = ragged_replay_bank(tiny_topo)
        np.testing.assert_array_equal(bank.epoch_arrays(0)[2], [5, 9, 0, 2])
        assert_columns_match_numpy_unique(bank, 0)


def ragged_replay_bank(topo):
    """A one-epoch replay on a 4-thread machine whose threads draw 5, 9,
    0 and 2 accesses."""
    cost = CostProfile(cpu_seconds=0.1, mem_accesses=1e6, dram_accesses=1e5)
    thread = np.array([0] * 5 + [1] * 9 + [3] * 2, dtype=np.int64)
    trace = TraceData(
        n_threads=4,
        n_granules=64,
        total_epochs=1,
        thread=thread,
        epoch=np.zeros(thread.size, dtype=np.int64),
        granule=np.array([3, 9, 3, 1, 40, 9, 9, 2, 3, 63, 1, 1, 0, 3,
                          9, 9], dtype=np.int64),
        is_write=np.zeros(thread.size, dtype=bool),
        cost=cost,
        tlb_run_length=8.0,
    )
    replay = TraceWorkloadInstance("ragged", topo, trace)
    return StreamBank(replay, SIM_SEED, 16)


class TestWeightScale:
    """``weight_scale`` is the one per-thread weight the engine's
    traffic bins and a bank's tracker counts share."""

    def test_active_threads_share_the_epoch_accesses(self):
        scale = weight_scale(1e5, np.array([4, 10, 250]))
        np.testing.assert_array_equal(scale, [1e5 / 4, 1e5 / 10, 1e5 / 250])

    def test_idle_threads_weigh_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scale = weight_scale(1e5, np.array([0, 8, 0, 2]))
        np.testing.assert_array_equal(scale, [0.0, 1e5 / 8, 0.0, 1e5 / 2])

    def test_an_idle_row_weighs_nothing(self):
        scale = weight_scale(1e5, np.zeros(3, dtype=np.int64))
        assert scale.dtype == np.float64
        assert not scale.any()

    def test_each_active_thread_weighs_the_epoch_accesses(self, tiny_topo):
        """Scaled by thread, a row's counts add up to the epoch's DRAM
        accesses for every thread that drew any, and to zero for one
        that drew none."""
        bank = ragged_replay_bank(tiny_topo)
        dram = bank.instance.cost.dram_accesses
        keys, counts = row_aggregates(bank, 0)
        _, threads = split_keys(bank, keys)
        scale = weight_scale(dram, bank.epoch_arrays(0)[2])
        per_thread = np.bincount(
            threads, weights=counts * scale[threads], minlength=bank.n_threads
        )
        np.testing.assert_allclose(per_thread, [dram, dram, 0.0, dram])


class TestRunHelpers:
    def test_run_starts_of_an_empty_row(self):
        assert run_starts(np.array([], dtype=np.int64)).size == 0

    def test_run_starts_of_a_single_run(self):
        np.testing.assert_array_equal(run_starts(np.full(5, 7)), [0])

    def test_run_starts_mark_each_change(self):
        np.testing.assert_array_equal(
            run_starts(np.array([2, 2, 5, 7, 7, 7, 2])), [0, 2, 3, 6]
        )

    def test_offsets_end_with_the_total(self):
        offsets = _offsets([np.arange(3), np.arange(0), np.arange(5)])
        assert offsets.dtype == np.int64
        np.testing.assert_array_equal(offsets, [0, 3, 3, 8])


def assert_bounds_match_thread_sets(bank, epoch):
    """Folded alone, a row gives each page at every level the lowest and
    highest of the threads that touched it, and leaves every other page
    untouched."""
    streams, _, sizes = bank.epoch_arrays(epoch)
    tracker = row_fold(bank, epoch)
    for level, shift in LEVELS.items():
        touched = {}
        for t in range(bank.n_threads):
            for page in np.unique(streams[t, : int(sizes[t])] >> shift).tolist():
                touched.setdefault(page, []).append(t)
        low, high = page_bounds(tracker, level)
        pages = sorted(touched)
        np.testing.assert_array_equal(low[pages], [touched[p][0] for p in pages])
        np.testing.assert_array_equal(high[pages], [touched[p][-1] for p in pages])
        untouched = np.ones(low.size, dtype=bool)
        untouched[pages] = False
        assert (low[untouched] == np.iinfo(low.dtype).max).all()
        assert (high[untouched] == -1).all()


class TestSharingLevels:
    @pytest.mark.parametrize("kind", sorted(REGION_FACTORIES))
    def test_levels_match_thread_sets(self, kind, tiny_topo):
        inst = make_instance(REGION_FACTORIES[kind](), tiny_topo)
        bank = StreamBank(inst, SIM_SEED, LENGTH)
        for epoch in range(inst.total_epochs):
            assert_bounds_match_thread_sets(bank, epoch)

    def test_ragged_replay_row(self, tiny_topo):
        assert_bounds_match_thread_sets(ragged_replay_bank(tiny_topo), 0)


class TestBankMemoization:
    def test_fingerprint_stability(self, tiny_topo):
        a = make_instance(REGION_FACTORIES["shared"](), tiny_topo)
        b = make_instance(REGION_FACTORIES["shared"](), tiny_topo)
        assert bank_fingerprint(a, 0, LENGTH) == bank_fingerprint(b, 0, LENGTH)
        assert bank_fingerprint(a, 1, LENGTH) != bank_fingerprint(a, 0, LENGTH)
        assert bank_fingerprint(a, 0, 64) != bank_fingerprint(a, 0, LENGTH)
        c = make_instance(REGION_FACTORIES["shared"](), tiny_topo, seed=7)
        assert bank_fingerprint(c, 0, LENGTH) != bank_fingerprint(a, 0, LENGTH)

    def test_equal_instances_share_a_bank(self, tiny_topo):
        a = make_instance(REGION_FACTORIES["partitioned"](), tiny_topo)
        b = make_instance(REGION_FACTORIES["partitioned"](), tiny_topo)
        assert get_stream_bank(a, 0, LENGTH) is get_stream_bank(b, 0, LENGTH)

    def test_trace_banks_are_per_object(self, tiny_topo):
        inst = make_instance(REGION_FACTORIES["shared"](), tiny_topo,
                             total_epochs=2)
        trace = TraceRecorder().record(inst, stream_length=64)
        r1 = TraceWorkloadInstance("t", tiny_topo, trace)
        r2 = TraceWorkloadInstance("t", tiny_topo, trace)
        assert bank_fingerprint(r1, 0, LENGTH) is None
        assert get_stream_bank(r1, 0, LENGTH) is get_stream_bank(r1, 0, LENGTH)
        assert get_stream_bank(r1, 0, LENGTH) is not get_stream_bank(r2, 0, LENGTH)

    def test_replay_is_freed_once_another_bank_takes_the_slot(self, tiny_topo):
        """A replay's bank refers to the replay, so a memo keyed weakly
        by the replay would keep both forever."""
        inst = make_instance(REGION_FACTORIES["shared"](), tiny_topo,
                             total_epochs=2)
        trace = TraceRecorder().record(inst, stream_length=64)
        replay = TraceWorkloadInstance("t", tiny_topo, trace)
        bank = get_stream_bank(replay, 0, LENGTH)
        bank.epoch_arrays(0)
        replay_ref, bank_ref = weakref.ref(replay), weakref.ref(bank)
        del replay, bank
        gc.collect()
        assert bank_ref() is get_stream_bank(replay_ref(), 0, LENGTH)
        get_stream_bank(inst, 0, LENGTH)
        gc.collect()
        assert replay_ref() is None
        assert bank_ref() is None

    def test_rebound_instance_invalidates_bank(self, tiny_topo):
        """with_1g_backing re-binds the shared region objects; the stale
        bank must not answer for the original fingerprint afterwards."""
        inst = make_instance(REGION_FACTORIES["stream"](), tiny_topo)
        stale = get_stream_bank(inst, SIM_SEED, LENGTH)
        stale.epoch_arrays(0)
        inst.with_1g_backing()  # mutates the regions stale.instance holds
        fresh_inst = make_instance(REGION_FACTORIES["stream"](), tiny_topo)
        fresh = get_stream_bank(fresh_inst, SIM_SEED, LENGTH)
        assert fresh is not stale
        assert_bank_matches_sequential(fresh, fresh_inst, 0)


class TestDiskStore:
    def test_round_trip_memmapped(self, tiny_topo, tmp_path, monkeypatch):
        monkeypatch.setenv(STREAM_CACHE_ENV, str(tmp_path))
        inst = make_instance(REGION_FACTORIES["mixed"](), tiny_topo,
                             total_epochs=3)
        bank = get_stream_bank(inst, SIM_SEED, LENGTH)
        # Consuming every epoch completes the block and persists it.
        for epoch in range(inst.total_epochs):
            bank.epoch_arrays(epoch)
        store_dir = os.path.join(str(tmp_path), bank.fingerprint)
        assert os.path.exists(os.path.join(store_dir, "b0.ok"))

        clear_stream_banks()
        inst2 = make_instance(REGION_FACTORIES["mixed"](), tiny_topo,
                              total_epochs=3)
        bank2 = get_stream_bank(inst2, SIM_SEED, LENGTH)
        streams2, _, _ = bank2.epoch_arrays(0)
        assert isinstance(streams2, np.memmap)  # loaded, not regenerated
        for epoch in range(inst2.total_epochs):
            assert_bank_matches_sequential(bank2, inst2, epoch)

    def test_incomplete_store_regenerates(self, tiny_topo, tmp_path,
                                          monkeypatch):
        monkeypatch.setenv(STREAM_CACHE_ENV, str(tmp_path))
        inst = make_instance(REGION_FACTORIES["shared"](), tiny_topo,
                             total_epochs=2)
        bank = get_stream_bank(inst, SIM_SEED, LENGTH)
        for epoch in range(inst.total_epochs):
            bank.epoch_arrays(epoch)
        os.unlink(os.path.join(str(tmp_path), bank.fingerprint, "b0.ok"))

        clear_stream_banks()
        inst2 = make_instance(REGION_FACTORIES["shared"](), tiny_topo,
                              total_epochs=2)
        bank2 = get_stream_bank(inst2, SIM_SEED, LENGTH)
        streams2, _, _ = bank2.epoch_arrays(0)
        assert not isinstance(streams2, np.memmap)
        for epoch in range(inst2.total_epochs):
            assert_bank_matches_sequential(bank2, inst2, epoch)

    def test_a_version_bump_starts_an_empty_store(
        self, tiny_topo, tmp_path, monkeypatch
    ):
        """Streams persisted by one version of the package are not
        served to another: the new version regenerates every row."""
        monkeypatch.setenv(STREAM_CACHE_ENV, str(tmp_path))
        inst = make_instance(REGION_FACTORIES["mixed"](), tiny_topo,
                             total_epochs=2)
        bank = get_stream_bank(inst, SIM_SEED, LENGTH)
        for epoch in range(inst.total_epochs):
            bank.epoch_arrays(epoch)
        assert os.path.exists(
            os.path.join(str(tmp_path), bank.fingerprint, "b0.ok")
        )

        clear_stream_banks()
        monkeypatch.setattr(repro, "__version__", "999.0")
        generated = []
        generate_row = StreamBank._generate_row

        def counted(self, block, i):
            generated.append(block.epoch0 + i)
            return generate_row(self, block, i)

        monkeypatch.setattr(StreamBank, "_generate_row", counted)
        inst2 = make_instance(REGION_FACTORIES["mixed"](), tiny_topo,
                              total_epochs=2)
        bank2 = get_stream_bank(inst2, SIM_SEED, LENGTH)
        for epoch in range(inst2.total_epochs):
            assert_bank_matches_sequential(bank2, inst2, epoch)
        assert generated == [0, 1]
        assert bank2.fingerprint != bank.fingerprint

    @pytest.mark.parametrize(
        "accessor", ["epoch_arrays", "ibs_states", "fold_tracker"]
    )
    def test_every_accessor_persists_a_completed_block(
        self, accessor, tiny_topo, tmp_path, monkeypatch
    ):
        """Whichever accessor fills a block's last row writes the block;
        none of its rows is on disk before that."""
        monkeypatch.setenv(STREAM_CACHE_ENV, str(tmp_path))
        inst = make_instance(REGION_FACTORIES["shared"](), tiny_topo,
                             total_epochs=2)
        bank = get_stream_bank(inst, SIM_SEED, LENGTH)
        marker = os.path.join(str(tmp_path), bank.fingerprint, "b0.ok")
        getattr(bank, accessor)(0)
        assert not os.path.exists(marker)
        getattr(bank, accessor)(1)
        assert os.path.exists(marker)


def assert_same_fold(got, want):
    for name in ("weight", "tmin", "tmax"):
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def assert_fused_matches_update(bank, instance, n_epochs):
    """Property: the bank's fold of epochs ``[0, n_epochs)``, and
    ``add_epoch`` over each row's aggregates, equal the per-thread
    ``update`` oracle loop bit for bit, thread bounds included.

    The reference recomputes the engine's per-thread scale
    (``dram_accesses / stream_size``) exactly as ``_run_epoch`` does.
    """
    seq = new_tracker(bank)
    fused = new_tracker(bank)
    dram = instance.cost.dram_accesses
    for epoch in range(n_epochs):
        streams, _, sizes = bank.epoch_arrays(epoch)
        scale = np.zeros(bank.n_threads)
        active = sizes > 0
        scale[active] = dram / sizes[active]
        for t in range(bank.n_threads):
            n = int(sizes[t])
            update(seq, t, streams[t, :n], float(scale[t]))
        keys, counts = row_aggregates(bank, epoch)
        assert (np.diff(keys) > 0).all()
        assert counts.shape == keys.shape
        assert int(counts.sum()) == int(sizes.sum())
        ids, threads = split_keys(bank, keys)
        fused.add_epoch(ids, threads, counts * scale[threads])
    assert_same_fold(fused, seq)
    assert_same_fold(bank.tracker(n_epochs), seq)


class TestFusedEpochAggregation:
    """Property-style equivalence: the fused per-epoch COO path (each
    row's aggregates into ``add_epoch``, and the bank's own fold) must
    reproduce the per-thread ``update`` oracle loop exactly."""

    @pytest.mark.parametrize("kind", sorted(REGION_FACTORIES))
    def test_every_region_kind(self, kind, tiny_topo):
        inst = make_instance(REGION_FACTORIES[kind](), tiny_topo)
        bank = StreamBank(inst, SIM_SEED, LENGTH)
        assert_fused_matches_update(bank, inst, inst.total_epochs)

    def test_empty_streams(self, tiny_topo):
        """Epochs nobody touches contribute empty COO segments."""
        cost = CostProfile(cpu_seconds=0.1, mem_accesses=1e6, dram_accesses=1e5)
        trace = TraceData(
            n_threads=2,
            n_granules=64,
            total_epochs=3,
            thread=np.array([0, 0, 1], dtype=np.int64),
            epoch=np.array([0, 0, 2], dtype=np.int64),
            granule=np.array([1, 2, 3], dtype=np.int64),
            is_write=np.array([False, True, False]),
            cost=cost,
            tlb_run_length=8.0,
        )
        replay = TraceWorkloadInstance("sparse", tiny_topo, trace)
        bank = StreamBank(replay, SIM_SEED, 16)
        keys, counts = row_aggregates(bank, 1)
        assert keys.size == counts.size == 0
        assert_fused_matches_update(bank, replay, 3)

    def test_single_thread_epochs(self):
        """A one-core machine produces a single COO segment."""
        from repro.hardware.topology import NumaNode, NumaTopology

        GIB = 1 << 30
        solo = NumaTopology(
            name="solo",
            nodes=[NumaNode(node_id=0, n_cores=1, dram_bytes=2 * GIB)],
            hop_matrix=np.array([[0]]),
            cpu_freq_hz=2e9,
        )
        inst = make_instance(REGION_FACTORIES["mixed"](), solo)
        assert inst.n_threads == 1
        bank = StreamBank(inst, SIM_SEED, LENGTH)
        keys, _ = row_aggregates(bank, 0)
        ids, threads = split_keys(bank, keys)
        assert not threads.any()
        np.testing.assert_array_equal(
            ids, np.unique(bank.epoch_arrays(0)[0][0])
        )
        assert_fused_matches_update(bank, inst, inst.total_epochs)

    def test_write_fraction_zero(self, tiny_topo):
        inst = make_instance(
            [SharedRegion("s", 4 * MIB, 1.0, write_fraction=0.0)], tiny_topo
        )
        bank = StreamBank(inst, SIM_SEED, LENGTH)
        assert_fused_matches_update(bank, inst, inst.total_epochs)

    def test_max_thread_id_edge(self, tiny_topo):
        """Only the highest thread id active: its segment must land at
        the COO tail and be both bounds of every granule it touched."""
        cost = CostProfile(cpu_seconds=0.1, mem_accesses=1e6, dram_accesses=1e5)
        last = 3  # tiny_topo has 4 cores -> thread ids 0..3
        trace = TraceData(
            n_threads=4,
            n_granules=64,
            total_epochs=2,
            thread=np.full(5, last, dtype=np.int64),
            epoch=np.zeros(5, dtype=np.int64),
            granule=np.array([7, 7, 9, 11, 9], dtype=np.int64),
            is_write=np.zeros(5, dtype=bool),
            cost=cost,
            tlb_run_length=8.0,
        )
        replay = TraceWorkloadInstance("tail", tiny_topo, trace)
        bank = StreamBank(replay, SIM_SEED, 16)
        keys, counts = row_aggregates(bank, 0)
        ids, threads = split_keys(bank, keys)
        assert (threads == last).all()
        np.testing.assert_array_equal(ids, [7, 9, 11])
        np.testing.assert_array_equal(counts, [2, 2, 1])
        tracker = row_fold(bank, 0)
        assert (tracker.tmin[[7, 9, 11]] == last).all()
        assert (tracker.tmax[[7, 9, 11]] == last).all()
        assert not shared_flags(tracker)["1g"].any()
        assert_fused_matches_update(bank, replay, 2)


def assert_flags_match_the_merge(bank, prefixes):
    """Folded over each of ``prefixes`` epochs, the bank's tracker gives
    every page at every level the shared flag that merging each row's
    first/shared summary in turn gives it, and bounds exactly the pages
    the merge saw touched; returns the last flags."""
    flags = None
    for n_epochs in sorted(prefixes):
        oracle = bank_sharing(bank, n_epochs)
        tracker = bank.tracker(n_epochs)
        flags = shared_flags(tracker)
        for level in LEVELS:
            np.testing.assert_array_equal(
                flags[level], oracle.shared[level], err_msg=level
            )
            low, high = page_bounds(tracker, level)
            np.testing.assert_array_equal(
                low <= high, oracle.first[level] >= 0, err_msg=level
            )
    return flags


def registry_bank(name, machine, backing_1g=False):
    """A workload's bank as a quick run on ``machine`` draws it."""
    config = SimConfig.quick()
    instance = get_workload(name).instantiate(
        machine_by_name(machine), config.scale, config.seed
    )
    if backing_1g:
        instance = instance.with_1g_backing()
    return StreamBank(instance, config.seed, config.stream_length)


def idle_thread_replay(topo):
    """A three-epoch replay over a ragged three-chunk space on a 4-thread
    machine: thread 2 never draws, and in epoch 1 only thread 3 does."""
    rng = np.random.default_rng(11)
    n_granules = 3 * (1 << SHIFT_2M) + 40
    thread = rng.choice([0, 1, 3], size=900)
    epoch = rng.integers(0, 3, size=900)
    keep = (epoch != 1) | (thread == 3)
    cost = CostProfile(cpu_seconds=0.1, mem_accesses=1e6, dram_accesses=1e5)
    trace = TraceData(
        n_threads=4,
        n_granules=n_granules,
        total_epochs=3,
        thread=thread[keep].astype(np.int64),
        epoch=epoch[keep].astype(np.int64),
        granule=rng.integers(0, n_granules, size=int(keep.sum())),
        is_write=np.zeros(int(keep.sum()), dtype=bool),
        cost=cost,
        tlb_run_length=8.0,
    )
    return StreamBank(TraceWorkloadInstance("idle", topo, trace), SIM_SEED, 512)


class TestThreadBounds:
    """Sharing from thread bounds equals the first/shared merge the
    tracker kept before, at 4KB, 2MB and 1GB (``FirstShared``)."""

    @pytest.mark.parametrize("machine", ["A", "B"])
    @pytest.mark.parametrize("name", available_workloads())
    def test_every_registry_workload(self, name, machine):
        bank = registry_bank(name, machine)
        total = bank.total_epochs
        bank.fold_tracker(total - 1)
        assert_flags_match_the_merge(bank, {1, max(1, total // 2), total})

    def test_1g_backing(self):
        bank = registry_bank("SSCA.20", "B", backing_1g=True)
        total = bank.total_epochs
        bank.fold_tracker(total - 1)
        flags = assert_flags_match_the_merge(bank, {total // 2, total})
        assert all(flags[level].any() for level in LEVELS)

    def test_ragged_replays_with_idle_threads(self, tiny_topo):
        bank = idle_thread_replay(tiny_topo)
        sizes = np.stack([bank.epoch_arrays(e)[2] for e in range(3)])
        assert not sizes[:, 2].any()
        np.testing.assert_array_equal(sizes[1] > 0, [False, False, False, True])
        flags = assert_flags_match_the_merge(bank, {1, 2, 3})
        assert flags["4k"].any() and flags["2m"].all()
        assert_flags_match_the_merge(ragged_replay_bank(tiny_topo), {1})

    @pytest.mark.parametrize("machine, dtype", [("A", np.int8), ("B", np.int8)])
    def test_bounds_are_the_narrowest_type(self, machine, dtype):
        tracker = registry_bank("Kmeans", machine)._new_tracker()
        assert tracker.tmin.dtype == tracker.tmax.dtype == dtype


class TestRowSeeding:
    """A row seeds its threads from one batch of start states loaded into
    the bank's one generator."""

    def test_a_row_builds_no_default_rng(self, monkeypatch):
        bank = registry_bank("Kmeans", "A")
        # Whatever the instance builds on its first draws is built now.
        registry_bank("Kmeans", "A").epoch_arrays(0)
        built = {"default_rng": 0, "PCG64": 0}
        default_rng, pcg64 = np.random.default_rng, np.random.PCG64

        def counted_default_rng(*args, **kwargs):
            built["default_rng"] += 1
            return default_rng(*args, **kwargs)

        def counted_pcg64(*args, **kwargs):
            built["PCG64"] += 1
            return pcg64(*args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counted_default_rng)
        monkeypatch.setattr(np.random, "PCG64", counted_pcg64)
        for epoch in range(3):
            bank.epoch_arrays(epoch)
        assert built == {"default_rng": 0, "PCG64": 1}
        monkeypatch.undo()
        for epoch in range(3):
            assert_bank_matches_sequential(
                bank, bank.instance, epoch, length=bank.length
            )


#: Every way a row is reached: the engine's two accessors and the row
#: helper a fold runs (each fills the row first).
ACCESSORS = (
    lambda bank, epoch: bank.epoch_arrays(epoch),
    lambda bank, epoch: bank.ibs_states(epoch),
    row_aggregates,
)

#: Epoch orders a consumer may walk a two-block bank in.
FILL_ORDERS = {
    "forward": lambda n: list(range(n)),
    "reverse": lambda n: list(reversed(range(n))),
    # Alternate ends, so consecutive fills land in different blocks.
    "interleaved": lambda n: [
        e for pair in zip(range(n // 2), reversed(range(n // 2, n)))
        for e in pair
    ],
}


def bank_row(bank, epoch):
    """Every column of one epoch, copied out of the bank."""
    streams, writes, sizes = bank.epoch_arrays(epoch)
    return (
        streams.copy(),
        writes.copy(),
        sizes.copy(),
        *row_aggregates(bank, epoch),
        list(bank.ibs_states(epoch)),
    )


def assert_rows_equal(got, want):
    for a, b in zip(got[:5], want[:5]):
        np.testing.assert_array_equal(a, b)
    assert got[5] == want[5]


class TestLazyFill:
    def test_only_consumed_rows_fill(self, tiny_topo):
        inst = make_instance(REGION_FACTORIES["shared"](), tiny_topo,
                             total_epochs=6)
        bank = StreamBank(inst, SIM_SEED, LENGTH)
        bank.epoch_arrays(0)
        block = bank._blocks[0]
        assert bool(block.filled[0])
        assert not block.filled[1:].any()

    @pytest.mark.parametrize("kind", sorted(REGION_FACTORIES))
    @pytest.mark.parametrize("order", sorted(FILL_ORDERS))
    def test_any_order_bit_identical(self, order, kind, tiny_topo):
        """A row fills inside whichever accessor first needs it; the
        epoch order and the filling accessor are invisible: every row
        equals the front-to-back fill, across the block boundary."""
        total = EPOCH_WINDOW + 4
        reference_inst = make_instance(REGION_FACTORIES[kind](), tiny_topo,
                                       total_epochs=total)
        reference_bank = StreamBank(reference_inst, SIM_SEED, LENGTH)
        reference = [bank_row(reference_bank, e) for e in range(total)]

        inst = make_instance(REGION_FACTORIES[kind](), tiny_topo,
                             total_epochs=total)
        bank = StreamBank(inst, SIM_SEED, LENGTH)
        for step, epoch in enumerate(FILL_ORDERS[order](total)):
            ACCESSORS[step % len(ACCESSORS)](bank, epoch)
        assert sorted(bank._blocks) == [0, EPOCH_WINDOW]
        assert all(block.filled.all() for block in bank._blocks.values())
        for epoch in range(total):
            assert_rows_equal(bank_row(bank, epoch), reference[epoch])
        for epoch in (0, EPOCH_WINDOW - 1, EPOCH_WINDOW, total - 1):
            assert_bank_matches_sequential(bank, inst, epoch)

    def test_evicted_block_refills_identically(self, tiny_topo):
        """Past ``_MAX_BLOCKS_PER_BANK`` blocks the oldest is dropped;
        revisiting one of its epochs regenerates the same row."""
        total = EPOCH_WINDOW * (_MAX_BLOCKS_PER_BANK + 1)
        inst = make_instance(REGION_FACTORIES["mixed"](), tiny_topo,
                             total_epochs=total)
        bank = StreamBank(inst, SIM_SEED, LENGTH)
        first = bank_row(bank, 1)
        for epoch0 in range(EPOCH_WINDOW, total, EPOCH_WINDOW):
            bank.epoch_arrays(epoch0)
        assert 0 not in bank._blocks
        assert len(bank._blocks) == _MAX_BLOCKS_PER_BANK
        assert_rows_equal(bank_row(bank, 1), first)
        assert not bank._blocks[0].filled[0]
        assert_bank_matches_sequential(bank, inst, 1)


class TestStoredAggregates:
    """The disk store keeps each row's aggregates: its writer computes
    them from the completed block, and a loaded block folds from them."""

    def test_stored_arrays_are_the_row_helpers_output(
        self, tiny_topo, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(STREAM_CACHE_ENV, str(tmp_path))
        inst = make_instance(REGION_FACTORIES["mixed"](), tiny_topo,
                             total_epochs=3)
        bank = get_stream_bank(inst, SIM_SEED, LENGTH)
        for epoch in range(inst.total_epochs):
            bank.epoch_arrays(epoch)
        path = os.path.join(str(tmp_path), bank.fingerprint, "b0.agg.npz")
        with np.load(path) as stored:
            got = {key: stored[key] for key in stored.files}
        rows = [row_aggregates(bank, e) for e in range(inst.total_epochs)]
        keys, counts = zip(*rows)
        want = {
            "t_keys": np.concatenate(keys),
            "t_counts": np.concatenate(counts),
            "t_row": np.cumsum([0] + [k.size for k in keys]),
        }
        assert sorted(got) == sorted(want)
        for key, array in want.items():
            assert got[key].dtype == array.dtype, key
            np.testing.assert_array_equal(got[key], array, err_msg=key)

    def test_loaded_block_folds_like_a_generated_one(
        self, tiny_topo, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(STREAM_CACHE_ENV, str(tmp_path))
        total = EPOCH_WINDOW + 4

        def instance():
            return make_instance(REGION_FACTORIES["mixed"](), tiny_topo,
                                 total_epochs=total)

        writer = get_stream_bank(instance(), SIM_SEED, LENGTH)
        for epoch in range(total):
            writer.fold_tracker(epoch)
        clear_stream_banks()
        loaded = get_stream_bank(instance(), SIM_SEED, LENGTH)
        for epoch in range(total):
            loaded.fold_tracker(epoch)
        assert sorted(loaded._blocks) == [0, EPOCH_WINDOW]
        assert all(b.stored is not None for b in loaded._blocks.values())
        generated = StreamBank(instance(), SIM_SEED, LENGTH)
        for n in (total, EPOCH_WINDOW + 1):
            assert_same_fold(loaded.tracker(n), generated.tracker(n))
            assert_same_fold(writer.tracker(n), generated.tracker(n))

    def test_a_block_in_the_older_layout_is_rebuilt(
        self, tiny_topo, tmp_path, monkeypatch
    ):
        """A block whose ``agg.npz`` holds each thread's ``np.unique``
        ids and per-thread offsets (``t_ids``/``t_off``, the layout
        before packed keys, with the sharing summaries of its day) reads
        as a miss: its rows are generated again, the block is rewritten
        with keys alone, and every fold is bit-identical."""
        monkeypatch.setenv(STREAM_CACHE_ENV, str(tmp_path))
        total = 3

        def instance():
            return make_instance(REGION_FACTORIES["mixed"](), tiny_topo,
                                 total_epochs=total)

        writer = get_stream_bank(instance(), SIM_SEED, LENGTH)
        for epoch in range(total):
            writer.fold_tracker(epoch)
        path = os.path.join(str(tmp_path), writer.fingerprint, "b0.agg.npz")
        with np.load(path) as stored:
            current = {key: stored[key] for key in stored.files}
        older = sharing_columns(writer, total)
        older.update(older_tracker_columns(writer, total))
        with open(path, "wb") as fh:
            np.savez(fh, **older)

        clear_stream_banks()
        generated = []
        generate_row = StreamBank._generate_row

        def counted(self, block, i):
            generated.append(block.epoch0 + i)
            return generate_row(self, block, i)

        monkeypatch.setattr(StreamBank, "_generate_row", counted)
        rebuilt = get_stream_bank(instance(), SIM_SEED, LENGTH)
        for epoch in range(total):
            rebuilt.fold_tracker(epoch)
        assert generated == list(range(total))
        assert rebuilt._blocks[0].stored is None
        with np.load(path) as stored:
            assert sorted(stored.files) == sorted(current)
            for key, array in current.items():
                np.testing.assert_array_equal(stored[key], array, err_msg=key)

        clear_stream_banks()
        loaded = get_stream_bank(instance(), SIM_SEED, LENGTH)
        for epoch in range(total):
            loaded.fold_tracker(epoch)
        assert generated == list(range(total))
        assert loaded._blocks[0].stored is not None
        want = StreamBank(instance(), SIM_SEED, LENGTH).tracker(total)
        for bank in (writer, rebuilt, loaded):
            assert_same_fold(bank.tracker(total), want)

    def test_a_block_with_sharing_summaries_reads_its_keys(
        self, tiny_topo, tmp_path, monkeypatch
    ):
        """A block written while ``agg.npz`` also held each row's
        first/shared summaries (``s_ids``, ``s_first``, ``s_multi``,
        ``s_row``, ``s_lvl``) beside the same packed keys is read, not
        regenerated: its keys and counts are this layout's, the
        summaries are not read, and every fold is bit-identical to a
        generated bank's, thread bounds and sharing flags included."""
        monkeypatch.setenv(STREAM_CACHE_ENV, str(tmp_path))
        total = EPOCH_WINDOW + 4

        def instance():
            return make_instance(REGION_FACTORIES["mixed"](), tiny_topo,
                                 total_epochs=total)

        writer = get_stream_bank(instance(), SIM_SEED, LENGTH)
        for epoch in range(total):
            writer.fold_tracker(epoch)
        for epoch0 in (0, EPOCH_WINDOW):
            n_epochs = min(EPOCH_WINDOW, total - epoch0)
            path = os.path.join(
                str(tmp_path), writer.fingerprint, f"b{epoch0}.agg.npz"
            )
            with np.load(path) as stored:
                payload = {key: stored[key] for key in stored.files}
            assert sorted(payload) == ["t_counts", "t_keys", "t_row"]
            payload.update(sharing_columns(writer, n_epochs, epoch0))
            with open(path, "wb") as fh:
                np.savez(fh, **payload)

        clear_stream_banks()
        generated = []
        generate_row = StreamBank._generate_row

        def counted(self, block, i):
            generated.append(block.epoch0 + i)
            return generate_row(self, block, i)

        monkeypatch.setattr(StreamBank, "_generate_row", counted)
        loaded = get_stream_bank(instance(), SIM_SEED, LENGTH)
        for epoch in range(total):
            loaded.fold_tracker(epoch)
        assert generated == []
        assert all(b.stored is not None for b in loaded._blocks.values())
        want = StreamBank(instance(), SIM_SEED, LENGTH)
        for n in (total, EPOCH_WINDOW + 1, 3):
            assert_same_fold(loaded.tracker(n), want.tracker(n))
            oracle = bank_sharing(want, n)
            flags = shared_flags(loaded.tracker(n))
            for level in LEVELS:
                np.testing.assert_array_equal(flags[level], oracle.shared[level])



#: Fractions of a block file kept: a write cut short, and a file whose
#: rename outlived a crash while its data did not.
TRUNCATIONS = {"halved": 0.5, "emptied": 0.0}


class TestUnreadableBlocks:
    """A block with a file that cannot be read is a miss, as a block in
    an older layout is: its rows are generated again, the block is
    rewritten, and every fold is bit-identical to a generated bank's."""

    @pytest.mark.parametrize("cut", sorted(TRUNCATIONS))
    @pytest.mark.parametrize("part", ["streams", "writes", "sizes", "rng", "agg"])
    def test_a_truncated_file_reads_as_a_miss(
        self, part, cut, tiny_topo, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(STREAM_CACHE_ENV, str(tmp_path))
        total = 3

        def instance():
            return make_instance(REGION_FACTORIES["mixed"](), tiny_topo,
                                 total_epochs=total)

        writer = get_stream_bank(instance(), SIM_SEED, LENGTH)
        for epoch in range(total):
            writer.fold_tracker(epoch)
        path = writer._paths(0)[part]
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[: int(len(data) * TRUNCATIONS[cut])])

        clear_stream_banks()
        rebuilt = get_stream_bank(instance(), SIM_SEED, LENGTH)
        for epoch in range(total):
            rebuilt.fold_tracker(epoch)
        assert rebuilt._blocks[0].stored is None
        assert os.path.getsize(path) == len(data)

        clear_stream_banks()
        loaded = get_stream_bank(instance(), SIM_SEED, LENGTH)
        for epoch in range(total):
            loaded.fold_tracker(epoch)
        assert loaded._blocks[0].stored is not None
        want = StreamBank(instance(), SIM_SEED, LENGTH).tracker(total)
        for bank in (writer, rebuilt, loaded):
            assert_same_fold(bank.tracker(total), want)

def sharing_columns(bank, n_epochs, epoch0=0):
    """The first/shared summaries ``agg.npz`` held beside the tracker
    columns until the tracker kept thread bounds: per row of the block
    at ``epoch0``, :func:`~tests.per_thread_streams.row_sharing`'s
    arrays, rows delimited by ``s_row`` and levels by ``s_lvl``."""
    rows = [
        row_sharing(row_aggregates(bank, epoch0 + i)[0], bank._tbits)
        for i in range(n_epochs)
    ]
    ids, first, multi, levels = zip(*rows)
    return {
        "s_ids": np.concatenate(ids),
        "s_first": np.concatenate(first),
        "s_multi": np.concatenate(multi),
        "s_row": np.cumsum([0] + [a.size for a in ids]),
        "s_lvl": np.stack(levels),
    }


def older_tracker_columns(bank, n_epochs):
    """The tracker columns of ``agg.npz`` before packed keys: per row,
    every thread's ``np.unique`` ids and counts in thread order, rows
    delimited by ``t_row`` and each row's threads by ``t_off``."""
    ids, counts, t_off = [], [], []
    for epoch in range(n_epochs):
        streams, _, sizes = bank.epoch_arrays(epoch)
        unique = [
            np.unique(streams[t, : int(sizes[t])], return_counts=True)
            for t in range(bank.n_threads)
        ]
        ids.append(np.concatenate([u for u, _ in unique]))
        counts.append(np.concatenate([c for _, c in unique]))
        t_off.append(np.cumsum([0] + [u.size for u, _ in unique]))
    return {
        "t_ids": np.concatenate(ids),
        "t_counts": np.concatenate(counts),
        "t_row": np.cumsum([0] + [a.size for a in ids]),
        "t_off": np.stack(t_off),
    }


def bumped(array, index):
    """A copy of ``array`` with one entry raised by one."""
    out = array.copy()
    out[index] += 1
    return out


#: Ways a stored ``agg.npz`` payload can disagree with its block.
PAYLOAD_FAULTS = {
    "older-layout": lambda agg: {
        k: v for k, v in agg.items() if k != "t_keys"
    },
    "row-offsets-short": lambda agg: {**agg, "t_row": agg["t_row"][:-1]},
    "row-offsets-past-the-keys": lambda agg: {
        **agg, "t_row": bumped(agg["t_row"], -1)
    },
    "counts-shorter-than-keys": lambda agg: {
        **agg, "t_counts": agg["t_counts"][:-1]
    },
    "counts-off-the-sizes": lambda agg: {
        **agg, "t_counts": bumped(agg["t_counts"], 0)
    },
}


class TestStoredPayload:
    """A stored block's rows read back as the row helper computed them,
    and a payload that disagrees with its block reads as a miss."""

    @pytest.fixture
    def stored(self, tiny_topo, tmp_path, monkeypatch):
        """A persisted three-epoch bank and its ``agg.npz`` payload."""
        monkeypatch.setenv(STREAM_CACHE_ENV, str(tmp_path))
        inst = make_instance(REGION_FACTORIES["mixed"](), tiny_topo,
                             total_epochs=3)
        bank = get_stream_bank(inst, SIM_SEED, LENGTH)
        for epoch in range(inst.total_epochs):
            bank.epoch_arrays(epoch)
        path = os.path.join(str(tmp_path), bank.fingerprint, "b0.agg.npz")
        with np.load(path) as npz:
            agg = {key: npz[key] for key in npz.files}
        return bank, agg

    def test_a_consistent_payload_reads_back_each_row(self, stored):
        bank, agg = stored
        rows = bank._rows_from_agg(agg, bank._blocks[0].sizes, 3)
        assert len(rows) == 3
        for epoch, (keys, counts) in enumerate(rows):
            want_keys, want_counts = row_aggregates(bank, epoch)
            np.testing.assert_array_equal(keys, want_keys)
            np.testing.assert_array_equal(counts, want_counts)

    @pytest.mark.parametrize("fault", sorted(PAYLOAD_FAULTS))
    def test_an_inconsistent_payload_reads_as_a_miss(self, fault, stored):
        bank, agg = stored
        sizes = bank._blocks[0].sizes
        assert bank._rows_from_agg(agg, sizes, 3) is not None
        assert bank._rows_from_agg(PAYLOAD_FAULTS[fault](agg), sizes, 3) is None


#: A small serial grid: two runs share Kmeans's bank, SSCA.20 has its own.
WORK_GRID = [
    RunSpec("Kmeans", "A", "linux-4k"),
    RunSpec("Kmeans", "A", "thp"),
    RunSpec("SSCA.20", "A", "linux-4k"),
]


def record_aggregation(monkeypatch):
    """Every bank built, and every ``(fingerprint, epoch)`` row the row
    helper aggregates, from now on."""
    banks, aggregated = [], []
    init = StreamBank.__init__
    aggregate_row = StreamBank._aggregate_row

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        banks.append(self)

    def counted(self, block, i):
        aggregated.append((self.fingerprint, block.epoch0 + i))
        return aggregate_row(self, block, i)

    monkeypatch.setattr(StreamBank, "__init__", tracked)
    monkeypatch.setattr(StreamBank, "_aggregate_row", counted)
    return banks, aggregated


class TestAggregationWork:
    """A row is aggregated when the bank folds it, once, and never when
    nothing folds it or its aggregates come from the disk store."""

    def test_each_folded_row_aggregates_once(self, monkeypatch):
        monkeypatch.delenv(STREAM_CACHE_ENV, raising=False)
        monkeypatch.setenv(CACHE_ENABLE_ENV, "0")
        banks, aggregated = record_aggregation(monkeypatch)
        GridRunner(SimConfig.quick(), jobs=1).run(WORK_GRID)
        assert len(banks) == 2
        folded = [
            (bank.fingerprint, epoch)
            for bank in banks
            for epoch in range(bank._folded)
        ]
        assert all(bank._folded > 0 for bank in banks)
        assert sorted(aggregated) == sorted(folded)

    def test_drawn_rows_aggregate_only_when_folded(self, tiny_topo, monkeypatch):
        """Drawing a row (streams, stores, IBS states) aggregates
        nothing; the fold that first reaches it does."""
        monkeypatch.delenv(STREAM_CACHE_ENV, raising=False)
        banks, aggregated = record_aggregation(monkeypatch)
        inst = make_instance(REGION_FACTORIES["mixed"](), tiny_topo,
                             total_epochs=3)
        bank = get_stream_bank(inst, SIM_SEED, LENGTH)
        for epoch in range(inst.total_epochs):
            bank.epoch_arrays(epoch)
            bank.ibs_states(epoch)
        assert banks == [bank] and bank._folded == 0
        assert aggregated == []
        bank.fold_tracker(0)
        assert aggregated == [(bank.fingerprint, 0)]

    def test_a_store_warm_pass_never_aggregates(self, tmp_path, monkeypatch):
        monkeypatch.setenv(STREAM_CACHE_ENV, str(tmp_path))
        monkeypatch.setenv(CACHE_ENABLE_ENV, "0")
        banks, aggregated = record_aggregation(monkeypatch)
        runner = GridRunner(SimConfig.quick(), jobs=1)
        cold = runner.run(WORK_GRID)
        # Store-cold, every run completes its bank's blocks, so each
        # row is aggregated twice: as the writer persists its block and
        # as the bank folds it.
        folded = [(b.fingerprint, e) for b in banks for e in range(b._folded)]
        assert sorted(aggregated) == sorted(folded * 2)
        clear_stream_banks()
        banks.clear()
        aggregated.clear()
        warm = runner.run(WORK_GRID)
        assert len(banks) == 2
        assert all(
            block.stored is not None
            for bank in banks
            for block in bank._blocks.values()
        )
        assert aggregated == []
        for spec in WORK_GRID:
            assert warm[spec].hot_stats == cold[spec].hot_stats


def deep_size(obj):
    """``sys.getsizeof`` summed over a tree of dicts, lists and scalars
    (an upper bound: shared keys and small ints count every time)."""
    if isinstance(obj, dict):
        return sys.getsizeof(obj) + sum(
            deep_size(k) + deep_size(v) for k, v in obj.items()
        )
    if isinstance(obj, (list, tuple)):
        return sys.getsizeof(obj) + sum(deep_size(v) for v in obj)
    return sys.getsizeof(obj)


class TestRetention:
    #: Room for the bank and block objects, their ``filled`` masks and
    #: the containers that hold them.
    SLACK_BYTES = 64 * 1024

    def test_a_folded_bank_holds_streams_states_and_its_fold(
        self, refcount_only, tiny_topo
    ):
        """Once every epoch is filled and folded, what deleting the bank
        frees is its blocks' streams, writes, sizes and RNG states and
        its one fold: no row keeps its aggregates."""
        total = EPOCH_WINDOW + 4
        length = 2048
        inst = make_instance(REGION_FACTORIES["mixed"](), tiny_topo,
                             total_epochs=total)
        # Whatever the instance builds lazily on a first draw is built
        # now, so it is not counted against the bank below.
        StreamBank(inst, SIM_SEED, length).fold_tracker(total - 1)
        tracemalloc.start()
        try:
            bank = StreamBank(inst, SIM_SEED, length)
            for epoch in range(total):
                bank.epoch_arrays(epoch)
                bank.fold_tracker(epoch)
            held = tracemalloc.get_traced_memory()[0]
            blocks = list(bank._blocks.values())
            assert len(blocks) == 2
            assert all(block.stored is None for block in blocks)
            arrays = sum(
                block.streams.nbytes + block.writes.nbytes + block.sizes.nbytes
                for block in blocks
            )
            states = sum(deep_size(block.rng_states) for block in blocks)
            fold = sum(
                value.nbytes
                for value in vars(bank.tracker(total)).values()
                if isinstance(value, np.ndarray)
            )
            del blocks, bank
            freed = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert arrays <= freed <= arrays + states + fold + self.SLACK_BYTES
