"""Policy-independent work is computed once per distinct input.

* Each interval's IBS batch groups into one sample table per
  granularity and page-size layout; the LAR estimate, the reactive step
  and Carrefour share it.
* TLB classification re-runs only when the page-size layout changes
  (``AddressSpace.layout_version``), not on every migration or replica.
* The runs of a stream bank share one access-tracker fold and one TLB
  working-set geometry.
* Translation skips the replication gathers while no page is replicated.

These tests gate on exact counts taken by recording wrappers, so a slow
machine cannot make them flake.  The folds are checked bit for bit
against the per-thread tracker oracle in ``tests/per_thread_streams.py``.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.metrics import PageSampleTable
from repro.experiments.configs import make_policy
from repro.experiments.runner import RunSettings, RunSpec, execute_run
from repro.hardware.ibs import IbsSamples
from repro.hardware.machines import machine_by_name
from repro.sim import tracker as tracker_module
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation
from repro.sim.policy import LinuxPolicy
from repro.sim.tracker import AccessTracker
from repro.vm.address_space import BACKING_ID_2M_OFFSET, AddressSpace
from repro.vm.frame_allocator import PhysicalMemory
from repro.vm.layout import GRANULES_PER_2M
from repro.workloads import regions
from repro.workloads.base import CostProfile, WorkloadInstance
from repro.workloads.registry import get_workload
from repro.workloads.regions import SharedRegion
from repro.workloads.streambank import clear_stream_banks, get_stream_bank
from tests.per_thread_streams import update

MIB = 1 << 20
GIB = 1 << 30


@pytest.fixture(autouse=True)
def _fresh_banks():
    clear_stream_banks()
    yield
    clear_stream_banks()


def _wrap_classmethod(monkeypatch, owner, name, before):
    """Replace classmethod ``owner.name`` with one calling ``before`` first."""
    original = owner.__dict__[name].__func__

    def recording(cls, *args, **kwargs):
        before(*args, **kwargs)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(owner, name, classmethod(recording))


def _simulation(workload, machine, policy, config):
    topo = machine_by_name(machine)
    instance = get_workload(workload).instantiate(topo, config.scale, config.seed)
    return Simulation(
        topo, instance, make_policy(policy, seed=config.seed), config=config
    )


# ----------------------------------------------------------------------
# Sample tables
# ----------------------------------------------------------------------
def _table_key(samples, address_space, n_nodes, granularity="backing"):
    layout = address_space.layout_version if granularity == "backing" else None
    return (id(samples), granularity, layout)


def _batch(granules, nodes, threads):
    n = len(granules)
    return IbsSamples(
        granule=np.asarray(granules, dtype=np.int64),
        accessing_node=np.asarray(nodes, dtype=np.int8),
        home_node=np.zeros(n, dtype=np.int8),
        thread=np.asarray(threads, dtype=np.int16),
        from_dram=np.ones(n, dtype=bool),
        is_write=np.arange(n) % 3 == 0,
    )


def _table_bits(table):
    return (
        table.ids.tobytes(),
        table.node_counts.tobytes(),
        table.thread_counts.tobytes(),
        table.n_samples,
        table.write_counts.tobytes(),
    )


class TestSampleTables:
    def test_each_interval_builds_one_table_per_granularity_and_layout(
        self, monkeypatch
    ):
        calls, builds, batches = [], [], []

        def on_call(samples, *args, **kwargs):
            batches.append(samples)  # keeps every id() unique
            calls.append(_table_key(samples, *args, **kwargs))

        def on_build(samples, *args, **kwargs):
            builds.append(_table_key(samples, *args, **kwargs))

        _wrap_classmethod(monkeypatch, PageSampleTable, "from_samples", on_call)
        _wrap_classmethod(monkeypatch, PageSampleTable, "_group", on_build)
        sim = _simulation("CG.D", "A", "carrefour-lp", SimConfig.quick())
        sim.run()

        assert len(builds) == len(set(builds)) == len(set(calls))
        assert sim.table_builds == len(builds)
        # The estimate, the reactive step and Carrefour ask for the
        # backing table of one batch; only the first ask builds it.
        assert len(calls) > len(builds)
        per_batch = {}
        for batch, granularity, layout in builds:
            per_batch.setdefault(batch, []).append((granularity, layout))
        for keys in per_batch.values():
            assert sum(g == "4k" for g, _ in keys) == 1
        # A reactive split before Carrefour's ask costs one rebuild.
        assert any(
            sorted(g for g, _ in keys) == ["4k", "backing", "backing"]
            for keys in per_batch.values()
        )

    def test_split_between_reactive_and_carrefour_costs_one_rebuild(self):
        asp = AddressSpace(4 * GRANULES_PER_2M, PhysicalMemory([GIB, GIB]))
        asp.premap_pattern_2m(0, np.array([0, 1], dtype=np.int8))
        asp.premap_pattern_4k(2 * GRANULES_PER_2M, np.array([0, 1, 1, 0]))
        rng = np.random.default_rng(17)
        granules = np.concatenate(
            [
                rng.integers(0, 2 * GRANULES_PER_2M, 300),
                2 * GRANULES_PER_2M + rng.integers(0, 4, 100),
            ]
        )
        samples = _batch(
            granules, rng.integers(0, 2, 400), rng.integers(0, 4, 400)
        )

        # The LAR estimate groups the batch both ways.
        backing = PageSampleTable.from_samples(samples, asp, 2)
        split = PageSampleTable.from_samples(samples, asp, 2, "4k")
        # The reactive step asks again: served from the batch.
        assert PageSampleTable.from_samples(samples, asp, 2) is backing
        # Migrations and replicas leave the page-size layout alone.
        asp.migrate_backing(BACKING_ID_2M_OFFSET, 1)
        asp.replicate_backing(2 * GRANULES_PER_2M)
        assert PageSampleTable.from_samples(samples, asp, 2) is backing
        assert len(samples.tables) == 2
        # A split before Carrefour's ask costs exactly one rebuild.
        asp.split_chunk(1)
        rebuilt = PageSampleTable.from_samples(samples, asp, 2)
        assert rebuilt is not backing
        assert PageSampleTable.from_samples(samples, asp, 2) is rebuilt
        assert PageSampleTable.from_samples(samples, asp, 2, "4k") is split
        assert len(samples.tables) == 3
        # Served tables equal fresh builds bit for bit.
        fresh = _batch(granules, samples.accessing_node, samples.thread)
        for granularity, table in (("backing", rebuilt), ("4k", split)):
            assert _table_bits(table) == _table_bits(
                PageSampleTable.from_samples(fresh, asp, 2, granularity)
            )

    def test_tables_are_keyed_per_address_space_and_node_count(self):
        phys = PhysicalMemory([GIB, GIB])
        spaces = [AddressSpace(2 * GRANULES_PER_2M, phys) for _ in range(2)]
        spaces[0].premap_pattern_2m(0, np.array([0, 1], dtype=np.int8))
        spaces[1].premap_pattern_4k(0, np.zeros(2 * GRANULES_PER_2M))
        samples = _batch(np.arange(0, 1024, 8), np.zeros(128), np.zeros(128))
        first = PageSampleTable.from_samples(samples, spaces[0], 2)
        second = PageSampleTable.from_samples(samples, spaces[1], 2)
        assert first.ids.size == 2 and second.ids.size == 128
        wider = PageSampleTable.from_samples(samples, spaces[0], 4)
        assert wider.node_counts.shape == (2, 4)
        assert len(samples.tables) == 3


# ----------------------------------------------------------------------
# TLB classifications
# ----------------------------------------------------------------------
@pytest.fixture
def toy(tiny_topo):
    """A quiescent THP-backed run: one hot region every thread reads,
    one idle region no thread reads."""
    cost = CostProfile(cpu_seconds=0.05, mem_accesses=1e6, dram_accesses=1e5)
    inst = WorkloadInstance(
        "toy-once",
        tiny_topo,
        [SharedRegion("hot", 8 * MIB, 1.0), SharedRegion("idle", 8 * MIB, 0.0)],
        cost,
        total_epochs=1,
    )
    sim = Simulation(tiny_topo, inst, LinuxPolicy(True), SimConfig(stream_length=128))
    nodes = tiny_topo.core_to_node[: inst.n_threads].astype(np.int64)
    inst.premap_epoch(0, sim.asp, nodes, thp_alloc=True)
    return sim


def _tlb_pass(sim):
    n = sim.n_threads
    sim._pass1_tlb(0, np.full(n, 128), np.zeros(n), np.zeros(n), np.zeros(n))


class TestClassifications:
    def test_migration_or_replica_alone_costs_no_classification(self, toy):
        hot, _ = toy.instance.regions
        chunk = hot.lo // GRANULES_PER_2M
        _tlb_pass(toy)
        assert toy.tlb_classifications == toy.n_threads
        version = toy.asp.version
        toy.asp.migrate_backing(chunk + BACKING_ID_2M_OFFSET, 1)
        toy.asp.replicate_backing(chunk + 1 + BACKING_ID_2M_OFFSET)
        assert toy.asp.version > version
        _tlb_pass(toy)
        assert toy.tlb_classifications == toy.n_threads
        assert toy.tlb_model.evaluations == 1

    def test_split_inside_a_thread_range_costs_one(self, toy):
        hot, _ = toy.instance.regions
        _tlb_pass(toy)
        toy.asp.split_chunk(hot.lo // GRANULES_PER_2M)
        _tlb_pass(toy)
        # One re-classification per thread, and one new model input
        # (every thread reads the same extent).
        assert toy.tlb_classifications == 2 * toy.n_threads
        assert toy.tlb_model.evaluations == 2

    def test_run_classifies_only_after_layout_changes(self, monkeypatch):
        # Carrefour-LP migrates, interleaves and replicates every
        # interval, which moves ``version``; a no-fault pass at the
        # layout of the pass before it classifies nothing.
        passes = []
        original = Simulation._pass1_tlb

        def recording(self, *args):
            before = self.tlb_classifications
            layout, version = self.asp.layout_version, self.asp.version
            original(self, *args)
            passes.append(
                (layout, version, self.tlb_classifications - before)
            )

        monkeypatch.setattr(Simulation, "_pass1_tlb", recording)
        sim = _simulation("CG.D", "A", "carrefour-lp", SimConfig.quick())
        sim.run()
        same_layout = [
            (version != prev_version, classified)
            for (prev_layout, prev_version, _), (layout, version, classified)
            in zip(passes, passes[1:])
            if layout == prev_layout
        ]
        assert all(classified == 0 for _, classified in same_layout)
        # Some of those passes followed migrations or replicas.
        assert any(moved for moved, _ in same_layout)


# ----------------------------------------------------------------------
# Tracker folds
# ----------------------------------------------------------------------
def _oracle_tracker(bank, instance, n_epochs):
    """The per-run fold: every thread's stream fed one at a time."""
    tracker = AccessTracker(instance.n_granules)
    dram = instance.cost.dram_accesses
    for epoch in range(n_epochs):
        streams, _, sizes = bank.epoch_arrays(epoch)
        scale = np.zeros(bank.n_threads)
        active = sizes > 0
        scale[active] = dram / sizes[active]
        for t in range(bank.n_threads):
            update(tracker, t, streams[t, : int(sizes[t])], float(scale[t]))
    return tracker


def _assert_same_fold(got, want):
    np.testing.assert_array_equal(got.weight, want.weight)
    for level in ("4k", "2m", "1g"):
        for kind in ("first", "shared"):
            name = f"_{kind}_{level}"
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def _stats_bits(stats):
    return (
        stats.pamup_pct.hex(),
        stats.n_hot_pages,
        stats.psp_pct.hex(),
        stats.total_weight.hex(),
    )


class TestTrackerFold:
    def test_runs_of_a_bank_fold_each_epoch_once(self, monkeypatch):
        folds = []
        original = AccessTracker.add_epoch

        def recording(self, ids, scaled):
            folds.append(self)
            return original(self, ids, scaled)

        monkeypatch.setattr(tracker_module.AccessTracker, "add_epoch", recording)
        config = SimConfig.quick()
        sims = [
            _simulation("Kmeans", "A", policy, config)
            for policy in ("linux-4k", "thp", "carrefour-lp")
        ]
        bank = sims[0]._stream_bank
        assert all(sim._stream_bank is bank for sim in sims)
        results = [sim.run() for sim in sims]
        n_epochs = len(results[0].epoch_times_s)
        assert len(folds) == n_epochs
        assert all(fold is bank.tracker(n_epochs) for fold in folds)
        oracle = _oracle_tracker(bank, sims[0].instance, n_epochs)
        _assert_same_fold(bank.tracker(n_epochs), oracle)
        for sim, result in zip(sims, results):
            assert _stats_bits(result.hot_stats) == _stats_bits(
                oracle.hot_page_stats(sim.asp)
            )

    def test_truncated_tenant_reads_its_prefix(self):
        config = SimConfig.quick()
        full = _simulation("SSCA.20", "A", "thp", config)
        full_result = full.run()
        n_epochs = len(full_result.epoch_times_s)
        short_config = dataclasses.replace(config, max_epochs=n_epochs // 2)
        short = _simulation("SSCA.20", "A", "carrefour-lp", short_config)
        bank = short._stream_bank
        assert bank is full._stream_bank
        short_result = short.run()
        assert len(short_result.epoch_times_s) == n_epochs // 2 < n_epochs
        oracle = _oracle_tracker(bank, short.instance, n_epochs // 2)
        _assert_same_fold(bank.tracker(n_epochs // 2), oracle)
        assert _stats_bits(short_result.hot_stats) == _stats_bits(
            oracle.hot_page_stats(short.asp)
        )
        # The bank's own fold still covers the full run.
        _assert_same_fold(
            bank.tracker(n_epochs), _oracle_tracker(bank, full.instance, n_epochs)
        )

    def test_fold_and_prefix_match_the_oracle_per_epoch(self, tiny_topo):
        cost = CostProfile(cpu_seconds=0.1, mem_accesses=1e6, dram_accesses=1e5)
        inst = WorkloadInstance(
            "fold",
            tiny_topo,
            [
                SharedRegion("s", 4 * MIB, 0.6, zipf_s=0.9),
                regions.StreamRegion(
                    "st", bytes_per_thread=2 * MIB, access_share=0.4,
                    grow_epochs=3,
                ),
            ],
            cost,
            total_epochs=5,
        )
        bank = get_stream_bank(inst, 0, 96)
        for epoch in range(inst.total_epochs):
            bank.fold_tracker(epoch)
            bank.fold_tracker(epoch)  # a second run reaching it: no-op
            for n in range(epoch + 2):
                _assert_same_fold(bank.tracker(n), _oracle_tracker(bank, inst, n))
        assert bank.tracker(inst.total_epochs) is bank.tracker(inst.total_epochs)


# ----------------------------------------------------------------------
# TLB geometry
# ----------------------------------------------------------------------
class TestGeometry:
    def test_evaluations_per_bank_equal_distinct_triples(self, monkeypatch):
        triples = []
        for cls in (
            regions.PartitionedRegion,
            regions.SharedRegion,
            regions.StreamRegion,
        ):
            original = cls.__dict__["tlb_groups"]

            def recording(self, thread, epoch, share, _original=original):
                triples.append((self.name, thread, self.tlb_epoch_key(epoch)))
                return _original(self, thread, epoch, share)

            monkeypatch.setattr(cls, "tlb_groups", recording)
        # WC grows a stream region for most of the run: a growth step
        # changes that region's key only.
        config = SimConfig.quick()
        sims = [
            _simulation("WC", "A", policy, config)
            for policy in ("linux-4k", "thp")
        ]
        assert sims[0]._stream_bank is sims[1]._stream_bank
        for sim in sims:
            sim.run()
        assert len(triples) == len(set(triples))
        assert len({name for name, _, _ in triples}) == len(
            sims[0].instance.regions
        )

    def test_unchanged_groups_keep_their_identity(self, tiny_topo):
        cost = CostProfile(cpu_seconds=0.1, mem_accesses=1e6, dram_accesses=1e5)
        inst = WorkloadInstance(
            "geom",
            tiny_topo,
            [
                SharedRegion("s", 4 * MIB, 0.5),
                regions.StreamRegion(
                    "st", bytes_per_thread=4 * MIB, access_share=0.5,
                    grow_epochs=2,
                ),
            ],
            cost,
            total_epochs=4,
        )
        grown = inst.tlb_groups(0, 0)
        assert inst.tlb_groups(0, 0) is grown
        later = inst.tlb_groups(0, 1)
        assert later is not grown  # the stream grew
        assert inst.tlb_groups(0, 2) is later  # fully grown from epoch 1
        # The shared region's part is the same objects in both lists.
        assert later[0] is grown[0]


# ----------------------------------------------------------------------
# Replication gathers
# ----------------------------------------------------------------------
class TestReplicationGathers:
    def _count(self, monkeypatch):
        gathers = []
        original = AddressSpace.replication_mask

        def recording(self, granules):
            gathers.append(1)
            return original(self, granules)

        monkeypatch.setattr(AddressSpace, "replication_mask", recording)
        return gathers

    def test_linux_4k_run_makes_no_gather(self, monkeypatch):
        gathers = self._count(monkeypatch)
        execute_run(RunSpec("Kmeans", "A", "linux-4k"), RunSettings.quick())
        assert gathers == []

    def test_a_replicating_run_still_gathers(self, monkeypatch):
        gathers = self._count(monkeypatch)
        sim = _simulation("CG.D", "B", "carrefour-4k", SimConfig.quick())
        sim.run()
        assert sim.executor.totals.replicated_pages > 0
        assert gathers
