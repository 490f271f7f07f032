"""Tests for the Carrefour placement engine."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hardware.counters import CounterBank, EpochCounters
from repro.hardware.ibs import IbsSamples
from repro.core.carrefour import CarrefourConfig, CarrefourEngine
from repro.core.metrics import PageSampleTable
from repro.sim.engine import apply_decisions
from repro.vm.address_space import (
    AddressSpace,
    BACKING_ID_2M_OFFSET,
    split_backing_page,
)
from repro.vm.frame_allocator import PhysicalMemory
from repro.vm.layout import GRANULES_PER_2M, PAGE_2M
from repro.vm.thp import ThpState
from tests.vm_helpers import node_of_backing

GIB = 1 << 30


def make_asp(n_chunks=4, n_nodes=2, huge=False):
    phys = PhysicalMemory([GIB] * n_nodes)
    asp = AddressSpace(n_chunks * GRANULES_PER_2M, phys)
    if huge:
        asp.premap_pattern_2m(0, np.zeros(n_chunks, dtype=np.int8))
    return asp


def place(engine, table, asp, n_nodes):
    """Drive the engine's placement decider against a bare address space."""
    host = SimpleNamespace(
        asp=asp, thp=ThpState(), machine=SimpleNamespace(n_nodes=n_nodes)
    )
    summary, _ = apply_decisions(
        host, engine.decide_placement(table, asp, n_nodes)
    )
    return summary


def make_table(asp, granules, nodes, n_nodes=2):
    n = len(granules)
    samples = IbsSamples(
        granule=np.asarray(granules, dtype=np.int64),
        accessing_node=np.asarray(nodes, dtype=np.int8),
        home_node=np.zeros(n, dtype=np.int8),
        thread=np.zeros(n, dtype=np.int16),
        from_dram=np.ones(n, dtype=bool),
    )
    return PageSampleTable.from_samples(samples, asp, n_nodes)


def window_with(lar_traffic, n_nodes=2, maptu_misses=1e9):
    bank = CounterBank(n_nodes, 4)
    bank.add(
        EpochCounters(
            epoch=0,
            duration_s=1.0,
            traffic=np.asarray(lar_traffic, dtype=float),
            l2_data_misses=maptu_misses,
        )
    )
    return bank


class TestConfig:
    def test_invalid_min_samples(self):
        with pytest.raises(ConfigurationError):
            CarrefourConfig(min_samples_per_page=0)

    def test_invalid_budget(self):
        with pytest.raises(ConfigurationError):
            CarrefourConfig(max_migration_bytes_per_interval=-1)


class TestShouldEngage:
    def test_low_maptu_disables(self):
        engine = CarrefourEngine()
        window = window_with([[1, 9], [9, 1]], maptu_misses=1.0)
        assert not engine.should_engage(window)

    def test_low_lar_engages(self):
        engine = CarrefourEngine()
        window = window_with([[1, 9], [9, 1]])  # LAR 10%
        assert engine.should_engage(window)

    def test_high_imbalance_engages(self):
        engine = CarrefourEngine()
        window = window_with([[18, 0], [2, 0]])  # all to node 0
        assert engine.should_engage(window)

    def test_healthy_app_left_alone(self):
        engine = CarrefourEngine()
        window = window_with([[10, 1], [1, 10]])  # LAR ~91%, balanced
        assert not engine.should_engage(window)


class TestPlacement:
    def test_single_node_page_migrates_local(self):
        asp = make_asp(huge=True)
        engine = CarrefourEngine()
        table = make_table(asp, [0, 0], [1, 1])
        summary = place(engine, table, asp, 2)
        assert summary.migrated_2m == 1
        assert node_of_backing(asp, BACKING_ID_2M_OFFSET) == 1

    def test_shared_page_interleaves_once(self):
        asp = make_asp(huge=True)
        engine = CarrefourEngine()
        table = make_table(asp, [0, 1], [0, 1])
        place(engine, table, asp, 2)
        node_after = node_of_backing(asp, BACKING_ID_2M_OFFSET)
        # A second interval must not re-randomise the interleaved page.
        table2 = make_table(asp, [0, 1], [0, 1])
        summary2 = place(engine, table2, asp, 2)
        assert node_of_backing(asp, BACKING_ID_2M_OFFSET) == node_after
        assert summary2.bytes_migrated <= PAGE_2M  # at most settles once

    def test_page_already_local_is_free(self):
        asp = make_asp(huge=True)
        engine = CarrefourEngine()
        table = make_table(asp, [0], [0])
        summary = place(engine, table, asp, 2)
        assert summary.bytes_migrated == 0

    def test_min_samples_filter(self):
        asp = make_asp(huge=True)
        engine = CarrefourEngine(CarrefourConfig(min_samples_per_page=3))
        table = make_table(asp, [0, 0], [1, 1])
        summary = place(engine, table, asp, 2)
        assert summary.migrated_2m == 0

    def test_migration_budget_respected(self):
        asp = make_asp(n_chunks=4, huge=True)
        engine = CarrefourEngine(
            CarrefourConfig(max_migration_bytes_per_interval=PAGE_2M)
        )
        granules = [0, 0, 512, 512, 1024, 1024]
        table = make_table(asp, granules, [1] * 6)
        summary = place(engine, table, asp, 2)
        assert summary.migrated_2m == 1
        assert any("budget" in note for note in summary.notes)

    def test_hottest_pages_first_under_budget(self):
        asp = make_asp(n_chunks=4, huge=True)
        engine = CarrefourEngine(
            CarrefourConfig(max_migration_bytes_per_interval=PAGE_2M)
        )
        # Chunk 1 has 3 samples, chunk 0 has 2: chunk 1 moves first.
        table = make_table(asp, [0, 0, 512, 512, 512], [1] * 5)
        place(engine, table, asp, 2)
        assert node_of_backing(asp, BACKING_ID_2M_OFFSET + 1) == 1
        assert node_of_backing(asp, BACKING_ID_2M_OFFSET) == 0

    def test_stale_ids_skipped(self):
        asp = make_asp(huge=True)
        engine = CarrefourEngine()
        table = make_table(asp, [0, 0], [1, 1])
        asp.split_chunk(0)  # table id now stale
        summary = place(engine, table, asp, 2)
        assert summary.migrated_2m == 0

    def test_compute_cost_scales_with_samples(self):
        asp = make_asp(huge=True)
        engine = CarrefourEngine()
        small = place(engine, make_table(asp, [0], [0]), asp, 2)
        big = place(engine, make_table(asp, [0] * 100, [0] * 100), asp, 2)
        assert big.compute_s > small.compute_s

    def test_empty_table(self):
        asp = make_asp()
        engine = CarrefourEngine()
        table = make_table(asp, [], [])
        summary = place(engine, table, asp, 2)
        assert summary.bytes_migrated == 0


class TestSplitBackingPage:
    def test_split_2m(self):
        asp = make_asp(huge=True)
        assert split_backing_page(asp, BACKING_ID_2M_OFFSET) == 1
        assert not asp.huge[0]

    def test_split_4k_is_noop(self):
        asp = make_asp()
        asp.premap_pattern_4k(0, np.zeros(1, dtype=np.int8))
        assert split_backing_page(asp, 0) == 0

    def test_split_1g(self):
        from repro.vm.address_space import BACKING_ID_1G_OFFSET
        from repro.vm.layout import GRANULES_PER_1G

        phys = PhysicalMemory([4 * GIB, 4 * GIB])
        asp = AddressSpace(GRANULES_PER_1G, phys)
        asp.map_range_1g(0, GRANULES_PER_1G, node=0)
        assert split_backing_page(asp, BACKING_ID_1G_OFFSET) == 512
        assert not asp.giga[0]
