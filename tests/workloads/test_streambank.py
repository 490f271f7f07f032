"""Tests for the epoch-batched stream banks.

The contract under test is *bit-identity*: a bank must be
indistinguishable from per-thread generation (the oracles in
``tests/per_thread_streams.py``) — same granule streams, same write
masks, same post-generation RNG states (the IBS sampler continues
those generators), and the same access-tracker state from the
pre-aggregated columns.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.options import STREAM_CACHE_ENV
from repro.sim.tracker import AccessTracker
from repro.workloads.base import CostProfile, WorkloadInstance
from repro.workloads.regions import (
    HotRegion,
    PartitionedRegion,
    SharedRegion,
    StreamRegion,
)
from repro.workloads.streambank import (
    EPOCH_WINDOW,
    _MAX_BLOCKS_PER_BANK,
    StreamBank,
    bank_fingerprint,
    clear_stream_banks,
    get_stream_bank,
)
from repro.workloads.trace import TraceData, TraceRecorder, TraceWorkloadInstance
from tests.per_thread_streams import SIM_SEED, sequential_rows, update

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


def assert_bank_matches_sequential(bank, instance, epoch, length=LENGTH):
    streams, writes, sizes = bank.epoch_arrays(epoch)
    ibs = bank.ibs_rngs(epoch)
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
        assert ibs[t].bit_generator.state == ref_state


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
        """Trace instances (no epoch_stream_into) use the fallback."""
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
        ids, first, multi, level_offsets = bank.sharing_packed(1)
        assert ids.size == first.size == multi.size == 0
        assert (level_offsets == 0).all()
        tracker = AccessTracker(64)
        tracker.merge_epoch_sharing(bank.sharing_packed(1))
        assert not tracker._shared_4k.any()
        assert (tracker._first_4k == -1).all()


class TestTrackerColumns:
    def test_columns_match_numpy_unique(self, tiny_topo):
        """Each thread's segment of the fused columns is its
        ``np.unique(stream, return_counts=True)``."""
        inst = make_instance(REGION_FACTORIES["mixed"](), tiny_topo)
        bank = StreamBank(inst, SIM_SEED, LENGTH)
        streams, _, sizes = bank.epoch_arrays(0)
        ids, offsets, counts, _ = bank.epoch_tracker(0)
        for t in range(inst.n_threads):
            lo, hi = int(offsets[t]), int(offsets[t + 1])
            ref_u, ref_c = np.unique(streams[t, : int(sizes[t])],
                                     return_counts=True)
            np.testing.assert_array_equal(ids[lo:hi], ref_u)
            np.testing.assert_array_equal(counts[lo:hi], ref_c)


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

    @pytest.mark.parametrize(
        "accessor",
        ["epoch_arrays", "ibs_rngs", "epoch_tracker", "sharing_packed"],
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


def assert_fused_matches_update(bank, instance, epochs):
    """Property: add_epoch over the fused COO == the per-thread
    ``update`` oracle loop, bit for bit, including sharing state.

    The reference recomputes the engine's per-thread scale
    (``dram_accesses / stream_size``) exactly as ``_run_epoch`` does.
    """
    seq = AccessTracker(instance.n_granules)
    fused = AccessTracker(instance.n_granules)
    dram = instance.cost.dram_accesses
    for epoch in epochs:
        streams, _, sizes = bank.epoch_arrays(epoch)
        scale = np.zeros(bank.n_threads)
        active = sizes > 0
        scale[active] = dram / sizes[active]
        for t in range(bank.n_threads):
            n = int(sizes[t])
            update(seq, t, streams[t, :n], float(scale[t]))
        ids, offsets, counts, scaled = bank.epoch_tracker(epoch)
        assert offsets.shape == (bank.n_threads + 1,)
        assert int(offsets[-1]) == ids.size == counts.size == scaled.size
        fused.add_epoch(ids, scaled)
        fused.merge_epoch_sharing(bank.sharing_packed(epoch))
    np.testing.assert_array_equal(fused.weight, seq.weight)
    for level in ("4k", "2m", "1g"):
        np.testing.assert_array_equal(
            getattr(fused, f"_first_{level}"), getattr(seq, f"_first_{level}")
        )
        np.testing.assert_array_equal(
            getattr(fused, f"_shared_{level}"), getattr(seq, f"_shared_{level}")
        )


class TestFusedEpochAggregation:
    """Property-style equivalence: the fused per-epoch COO path
    (``epoch_tracker`` + ``add_epoch`` + ``sharing_packed``) must
    reproduce the per-thread ``update`` oracle loop exactly."""

    @pytest.mark.parametrize("kind", sorted(REGION_FACTORIES))
    def test_every_region_kind(self, kind, tiny_topo):
        inst = make_instance(REGION_FACTORIES[kind](), tiny_topo)
        bank = StreamBank(inst, SIM_SEED, LENGTH)
        assert_fused_matches_update(bank, inst, range(inst.total_epochs))

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
        ids, offsets, counts, scaled = bank.epoch_tracker(1)
        assert ids.size == counts.size == scaled.size == 0
        assert (offsets == 0).all()
        assert_fused_matches_update(bank, replay, range(3))

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
        ids, offsets, counts, _ = bank.epoch_tracker(0)
        assert offsets.shape == (2,)
        np.testing.assert_array_equal(
            ids, np.unique(bank.epoch_arrays(0)[0][0])
        )
        assert_fused_matches_update(bank, inst, range(inst.total_epochs))

    def test_write_fraction_zero(self, tiny_topo):
        inst = make_instance(
            [SharedRegion("s", 4 * MIB, 1.0, write_fraction=0.0)], tiny_topo
        )
        bank = StreamBank(inst, SIM_SEED, LENGTH)
        assert_fused_matches_update(bank, inst, range(inst.total_epochs))

    def test_max_thread_id_edge(self, tiny_topo):
        """Only the highest thread id active: its segment must land at
        the COO tail and own the sharing ``first`` entries."""
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
        ids, offsets, counts, _ = bank.epoch_tracker(0)
        assert (offsets[: last + 1] == 0).all()
        np.testing.assert_array_equal(ids, [7, 9, 11])
        np.testing.assert_array_equal(counts, [2, 2, 1])
        p_ids, p_first, _, _ = bank.sharing_packed(0)
        assert (p_first == last).all()
        assert_fused_matches_update(bank, replay, range(2))

    def test_ragged_and_full_paths_agree(self, tiny_topo):
        """The vectorized row-sort aggregation (full rows) equals the
        per-thread np.unique fallback on the same data."""
        inst = make_instance(REGION_FACTORIES["mixed"](), tiny_topo)
        bank = StreamBank(inst, SIM_SEED, LENGTH)
        block, i = bank._ensure_row(2)
        fast = bank._aggregate_tracker(block, i)
        forced = bank.length
        try:
            bank.length = -1  # any mismatch forces the ragged path
            slow = bank._aggregate_tracker(block, i)
        finally:
            bank.length = forced
        for a, b in zip(fast, slow):
            np.testing.assert_array_equal(a, b)


ACCESSORS = ("epoch_arrays", "ibs_rngs", "epoch_tracker", "sharing_packed")

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
        bank.epoch_tracker(epoch),
        bank.sharing_packed(epoch),
        [r.bit_generator.state for r in bank.ibs_rngs(epoch)],
    )


def assert_rows_equal(got, want):
    for a, b in zip(got[:3], want[:3]):
        np.testing.assert_array_equal(a, b)
    for columns in (3, 4):
        for a, b in zip(got[columns], want[columns]):
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
            getattr(bank, ACCESSORS[step % len(ACCESSORS)])(epoch)
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
