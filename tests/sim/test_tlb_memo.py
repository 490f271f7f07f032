"""The TLB model evaluates each distinct classified input once per run.

:meth:`repro.hardware.tlb.TlbModel.epoch_result_grouped` memoizes its
results on the exact input value, and address-space version bumps do
not clear that memo.  These tests gate on exact evaluation counts, so a
slow machine cannot make them flake.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments.runner import RunSettings, RunSpec, execute_run
from repro.hardware import tlb
from repro.hardware.caches import CacheModel
from repro.hardware.tlb import TlbModel, TlbSpec
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation
from repro.sim.policy import LinuxPolicy
from repro.vm.layout import GRANULES_PER_2M, PageSize
from repro.workloads.base import CostProfile, WorkloadInstance
from repro.workloads.regions import SharedRegion

MIB = 1 << 20


def _value(groups_by_size, represented_accesses):
    """Bitwise identity of one model input, independent of the model."""
    return (np.float64(represented_accesses).tobytes(),) + tuple(
        (int(size),) + tuple(
            np.asarray(column, dtype=np.float64).tobytes()
            for column in groups_by_size[size]
        )
        for size in sorted(groups_by_size)
    )


def _bits(result):
    return np.array(
        [result.misses, result.walk_cycles, result.walk_l2_misses,
         result.miss_rate]
    ).tobytes()


class TestRunCounts:
    def test_quick_thp_run_evaluates_each_distinct_input_once(self, monkeypatch):
        # WC@A/thp is small but re-classifies often: khugepaged bumps
        # the address-space version in most epochs.
        inputs = {}
        calls = []
        models = []
        solves = []
        original = TlbModel.epoch_result_grouped
        group_hit_rates = tlb.lru_group_hit_rates

        def recording(self, groups_by_size, represented_accesses):
            key = _value(groups_by_size, represented_accesses)
            calls.append(key)
            # An evaluation solves once per size class with accesses.
            inputs[key] = sum(
                float(np.sum(weights)) > 0
                for _, weights, _ in groups_by_size.values()
            )
            if self not in models:
                models.append(self)
            return original(self, groups_by_size, represented_accesses)

        def solving(*args):
            solves.append(1)
            return group_hit_rates(*args)

        monkeypatch.setattr(TlbModel, "epoch_result_grouped", recording)
        monkeypatch.setattr(tlb, "lru_group_hit_rates", solving)
        execute_run(RunSpec("WC", "A", "thp"), RunSettings.quick())
        assert len(calls) > 10 * len(inputs)
        assert len(solves) == sum(inputs.values())
        (model,) = models
        assert model.evaluations == len(inputs)
        assert model.memo_hits == len(calls) - len(inputs)


@pytest.fixture
def toy(tiny_topo):
    """A quiescent THP-backed toy run: one hot region every thread
    reads, and one idle region no thread reads."""
    cost = CostProfile(cpu_seconds=0.05, mem_accesses=1e6, dram_accesses=1e5)
    inst = WorkloadInstance(
        "toy-memo",
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
    sim._pass1_tlb(
        0, np.full(n, 128), np.zeros(n), np.zeros(n), np.zeros(n)
    )


class TestVersionBumps:
    def test_bump_outside_thread_ranges_costs_no_evaluation(self, toy):
        _, idle = toy.instance.regions
        _tlb_pass(toy)
        # Every thread reads the same hot extent: one shared input.
        assert toy.tlb_model.evaluations == 1
        version = toy.asp.version
        toy.asp.split_chunk(idle.lo // GRANULES_PER_2M)
        assert toy.asp.version > version
        _tlb_pass(toy)
        assert toy.tlb_model.evaluations == 1
        assert toy.tlb_model.memo_hits == toy.n_threads * 2 - 1

    def test_split_inside_thread_ranges_costs_one(self, toy):
        hot, _ = toy.instance.regions
        _tlb_pass(toy)
        toy.asp.split_chunk(hot.lo // GRANULES_PER_2M)
        _tlb_pass(toy)
        assert toy.tlb_model.evaluations == 2
        # The split really reached the classified input.
        groups = toy._classify_tlb_groups(
            toy.instance.tlb_groups(0, 0), {}
        )
        assert PageSize.SIZE_4K in groups

    def test_faulting_pass_shares_the_memo(self, toy):
        _tlb_pass(toy)
        n = toy.n_threads
        length = 128
        streams, writes, sizes = toy._stream_bank.epoch_arrays(0)
        toy._pass1_faulting(
            0, streams, writes, np.zeros((n, length), dtype=np.int64), sizes,
            np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n), set(),
        )
        assert toy.tlb_model.evaluations == 1
        assert toy.tlb_model.memo_hits == 2 * n - 1


class TestMemoFidelity:
    def test_memoized_results_equal_fresh_ones_bitwise(self):
        rng = np.random.default_rng(14)
        inputs = []
        for _ in range(40):
            groups = {}
            for size in PageSize:
                if rng.random() < 0.4:
                    continue
                k = int(rng.integers(1, 5))
                groups[size] = (
                    np.floor(10.0 ** rng.uniform(0.0, 6.0, k)),
                    rng.random(k),
                    rng.uniform(1.0, 600.0, k),
                )
            inputs.append((groups, float(rng.uniform(1e5, 1e8))))
        # Inputs one ulp apart must not share an entry.
        base = {PageSize.SIZE_2M: (np.array([900.0]), np.array([0.5]),
                                   np.array([3.0]))}
        nudged = {PageSize.SIZE_2M: (np.array([900.0]),
                                     np.nextafter(np.array([0.5]), 1.0),
                                     np.array([3.0]))}
        inputs += [
            (base, 1e6),
            (base, float(np.nextafter(1e6, np.inf))),
            (nudged, 1e6),
        ]

        spec, cache = TlbSpec(), CacheModel()
        memoized = TlbModel(spec, cache)
        order = rng.integers(0, len(inputs), size=4 * len(inputs))
        for i in order:
            groups, accesses = inputs[i]
            fresh = TlbModel(spec, cache).epoch_result_grouped(groups, accesses)
            assert _bits(memoized.epoch_result_grouped(groups, accesses)) == (
                _bits(fresh)
            )
        distinct = len({int(i) for i in order})
        assert memoized.evaluations == distinct
        assert memoized.memo_hits == len(order) - distinct

    def test_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(tlb, "MEMO_LIMIT", 3)
        model = TlbModel(TlbSpec(), CacheModel())
        for i in range(5):
            groups = {PageSize.SIZE_4K: ([5000.0 + i], [1.0], [1.0])}
            model.epoch_result_grouped(groups, 1e6)
        assert len(model._memo) == 3
        # The oldest entry went first: asking for it again evaluates.
        model.epoch_result_grouped({PageSize.SIZE_4K: ([5000.0], [1.0], [1.0])}, 1e6)
        assert model.evaluations == 6

