"""Bulk pinning and khugepaged's free-block check against per-call oracles.

``NodeMemory.pin_fragmented`` pins each phase in one bulk allocator step
and ``khugepaged_scan`` skips its per-chunk loop when no node has a free
2MB block.  Both must leave exactly the state the per-call loops in
``tests/per_call_pressure.py`` leave: every free list in the same
iteration order, the allocated map in the same insertion order, the
same pins and counters, the same frames from later allocations, and the
same address-space arrays and scan cursor.  The one difference is by
design: the oracle records each pin in the allocated map, the shipped
allocator only counts its frames, so the shipped map must be the
oracle's without the oracle's pins.
"""

from __future__ import annotations

import tracemalloc
from typing import Optional

import numpy as np
import pytest

from repro.errors import AllocationError
from repro.experiments.scenario_runner import execute_scenario
from repro.hardware.machines import machine_a, machine_b
from repro.scenarios import ScenarioConfig
from repro.sim import engine
from repro.sim.config import SimConfig
from repro.sim.host import Host
from repro.vm.address_space import AddressSpace
from repro.vm.frame_allocator import BuddyAllocator, NodeMemory, PhysicalMemory
from repro.vm.layout import GRANULES_PER_2M, ORDER_2M, PAGE_2M, PAGE_4K
from repro.vm.thp import ThpState, khugepaged_scan
from tests import per_call_pressure as per_call

GIB = 1 << 30
MIB = 1 << 20

FRACTIONS = (0.0, 0.05, 0.3, 0.5, 0.7, 0.97)


def _mixed_ops(buddy, seed, n, alloc, free, top_order):
    """Results of a seeded mix of ``n`` allocations and frees."""
    rng = np.random.default_rng(seed)
    mine = []
    results = []
    for _ in range(n):
        if mine and rng.random() < 0.4:
            start, order = mine.pop(int(rng.integers(len(mine))))
            free(buddy, start, order)
            results.append(("free", start, order))
            continue
        order = int(rng.integers(0, top_order + 1))
        try:
            start = alloc(buddy, order)
        except AllocationError:
            results.append(("full", order))
        else:
            mine.append((start, order))
            results.append(("alloc", start, order))
    return results


def _shipped_ops(buddy, seed, n):
    return _mixed_ops(
        buddy, seed, n,
        BuddyAllocator.alloc, BuddyAllocator.free,
        min(buddy.max_order, ORDER_2M + 1),
    )


def _used_node():
    """Machine A's node after a history of mixed allocations and frees,
    so pinning starts from free lists that are not a fresh boot's."""
    node = NodeMemory(0, machine_a().nodes[0].dram_bytes)
    _shipped_ops(node.buddy, seed=11, n=3000)
    node.alloc_small(5000)
    node.free_small(1200)
    return node


#: Node builders; each call returns a fresh, identical node.
NODES = {
    "A": lambda: NodeMemory(0, machine_a().nodes[0].dram_bytes),
    "B": lambda: NodeMemory(0, machine_b().nodes[0].dram_bytes),
    # 787,463 frames (not a power of two) under 16MB blocks.
    "irregular": lambda: NodeMemory(
        0, 3 * GIB + 5 * PAGE_2M + 7 * PAGE_4K, max_order=12
    ),
    "used": _used_node,
}


def allocator_state(node: NodeMemory, pins: Optional[dict] = None) -> tuple:
    """Everything pinning can change, in observable order.

    ``pins`` are blocks a per-call oracle recorded as allocated where the
    shipped allocator only counts frames: they are left out of the
    allocated map and counted with the pinned bytes instead.
    """
    buddy = node.buddy
    pins = pins or {}
    return (
        [list(blocks) for blocks in buddy._free],
        [item for item in buddy._allocated.items() if item[0] not in pins],
        buddy.free_frames,
        node.pinned_bytes + sum((1 << o) * PAGE_4K for o in pins.values()),
        node.pool_stats(),
    )


def oracle_pin(node: NodeMemory, target_bytes: int) -> tuple:
    """Pin through the per-call oracle; returns the bytes pinned and the
    blocks its pinning added to the allocated map, in insertion order."""
    before = set(node.buddy._allocated)
    pinned = per_call.pin_fragmented(node, target_bytes)
    pins = {
        start: order
        for start, order in node.buddy._allocated.items()
        if start not in before
    }
    return pinned, pins


class TestBulkPinning:
    @pytest.mark.parametrize("fraction", FRACTIONS)
    @pytest.mark.parametrize("kind", sorted(NODES))
    def test_matches_per_call_pinning(self, kind, fraction):
        bulk, oracle = NODES[kind](), NODES[kind]()
        assert allocator_state(bulk) == allocator_state(oracle)
        target = int(bulk.free_bytes * fraction)
        pinned = bulk.pin_fragmented(target)
        want, pins = oracle_pin(oracle, target)
        assert pinned == want
        assert pinned == bulk.pinned_bytes
        assert oracle.pinned_bytes == 0  # the oracle records, never counts
        assert bulk.buddy.pinned_frames == sum(1 << o for o in pins.values())
        assert allocator_state(bulk) == allocator_state(oracle, pins)
        # Later allocations and frees return the same frames.
        assert _shipped_ops(bulk.buddy, 5, 100) == _shipped_ops(
            oracle.buddy, 5, 100
        )
        assert allocator_state(bulk) == allocator_state(oracle, pins)
        bulk.buddy.check_accounting()
        oracle.buddy.check_accounting()

    def test_host_apply_pressure_matches_per_call(self):
        """The host entry point pins every node like the per-call loop."""
        host = Host(machine_a())
        oracle = PhysicalMemory.for_topology(machine_a())
        pinned = host.apply_pressure(0.7)
        results = [
            oracle_pin(node, int(node.free_bytes * 0.7)) for node in oracle.nodes
        ]
        assert pinned == sum(want for want, _ in results)
        for node, ref, (want, pins) in zip(host.phys.nodes, oracle.nodes, results):
            assert node.pinned_bytes == want
            assert allocator_state(node) == allocator_state(ref, pins)
            assert not node.can_alloc_huge()


class TestPinsKeepNoRecord:
    """A pin is a count, not an allocated-map entry: machine B's eight
    64 GiB nodes under 50% pressure hold 32,768 pins each, which took
    52.0 MiB with an entry per pin and take 24.0 MiB without (the
    order-8 free sets the released halves leave)."""

    def test_machine_b_pressure_retains_under_32_mib(self, refcount_only):
        tracemalloc.start()
        try:
            host = Host(machine_b())
            host.apply_pressure(0.5)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert host.phys.total_free_bytes > 0
        assert retained < 32 * MIB

    @pytest.mark.parametrize("kind", ["A", "B", "irregular"])
    def test_pinning_a_fresh_node_adds_no_record(self, kind):
        node = NODES[kind]()
        pinned = node.pin_fragmented(int(node.free_bytes * 0.5))
        node.inject_fragmentation(3, order=0)
        assert node.buddy._allocated == {}
        assert node.pinned_bytes == node.used_bytes == pinned + 3 * PAGE_4K
        node.buddy.check_accounting()


class TestOneBlockCase:
    """``alloc``/``free`` and the bulk steps share one split and merge."""

    @pytest.mark.parametrize("seed", range(3))
    def test_alloc_and_free_match_per_call(self, seed):
        shipped = BuddyAllocator(3 * 4096 + 777, max_order=12)
        oracle = BuddyAllocator(3 * 4096 + 777, max_order=12)
        got = _shipped_ops(shipped, seed, 600)
        want = _mixed_ops(
            oracle, seed, 600, per_call.alloc, per_call.free,
            min(oracle.max_order, ORDER_2M + 1),
        )
        assert got == want
        assert any(result[0] == "full" for result in got)
        assert [list(s) for s in shipped._free] == [list(s) for s in oracle._free]
        assert list(shipped._allocated.items()) == list(oracle._allocated.items())
        assert shipped.free_frames == oracle.free_frames

    def test_alloc_many_stops_when_memory_runs_out(self):
        shipped = BuddyAllocator(1000, max_order=6)
        oracle = BuddyAllocator(1000, max_order=6)
        starts = shipped.alloc_many(3, 200)
        assert len(starts) == 1000 // 8
        assert starts == [per_call.alloc(oracle, 3) for _ in starts]
        assert shipped.free_frames == oracle.free_frames == 1000 % 8
        assert [list(s) for s in shipped._free] == [list(s) for s in oracle._free]
        assert shipped.alloc_many(3, 5) == []

    def test_free_many_stops_at_a_bad_block(self):
        shipped = BuddyAllocator(4096, max_order=10)
        oracle = BuddyAllocator(4096, max_order=10)
        starts = shipped.alloc_many(2, 40)
        for _ in starts:
            per_call.alloc(oracle, 2)
        with pytest.raises(AllocationError):
            shipped.free_many(starts[:10] + [starts[5]] + starts[10:], 2)
        for start in starts[:10]:
            per_call.free(oracle, start, 2)
        assert [list(s) for s in shipped._free] == [list(s) for s in oracle._free]
        assert list(shipped._allocated.items()) == list(oracle._allocated.items())
        assert shipped.free_frames == oracle.free_frames
        # A wrong order re-records the block, as one free call does.
        with pytest.raises(AllocationError):
            shipped.free_many([starts[20]], 3)
        with pytest.raises(AllocationError):
            per_call.free(oracle, starts[20], 3)
        assert list(shipped._allocated.items()) == list(oracle._allocated.items())


N_CHUNKS = 24


def mapped_space(pressure=(0.0, 0.0)) -> AddressSpace:
    """Two 1GB nodes under the given per-node pressure, then a space
    whose chunks are all fully 4KB-mapped (alternating nodes) and so
    all eligible for collapse."""
    phys = PhysicalMemory([GIB, GIB])
    for node, fraction in zip(phys.nodes, pressure):
        node.pin_fragmented(int(node.free_bytes * fraction))
    asp = AddressSpace(N_CHUNKS * GRANULES_PER_2M, phys)
    for chunk in range(N_CHUNKS):
        granules = np.arange(chunk * GRANULES_PER_2M, (chunk + 1) * GRANULES_PER_2M)
        asp.fault_in(granules, node=chunk % 2, thp_alloc=False)
    return asp


def space_state(asp: AddressSpace) -> tuple:
    arrays = {
        name: (value.dtype.str, value.tobytes())
        for name, value in sorted(vars(asp).items())
        if isinstance(value, np.ndarray)
    }
    return (
        arrays,
        asp._version,
        [allocator_state(node) for node in asp.phys.nodes],
    )


@pytest.fixture
def collapse_calls(monkeypatch):
    """Chunks passed to ``AddressSpace.collapse_chunk``, in call order."""
    calls = []
    original = AddressSpace.collapse_chunk

    def counted(self, chunk, node=None):
        calls.append(chunk)
        return original(self, chunk, node)

    monkeypatch.setattr(AddressSpace, "collapse_chunk", counted)
    return calls


def _scan_both(pressure, collapse_calls, batch, scans, max_collapses=None):
    """Run the shipped and the per-chunk scan side by side; returns the
    collapse counts and the attempts of each."""
    shipped, oracle = mapped_space(pressure), mapped_space(pressure)
    assert space_state(shipped) == space_state(oracle)
    state, ref_state = ThpState(scan_batch=batch), ThpState(scan_batch=batch)
    got, want, shipped_calls, oracle_calls = [], [], [], []
    for _ in range(scans):
        del collapse_calls[:]
        got.append(khugepaged_scan(state, shipped, max_collapses))
        shipped_calls.append(list(collapse_calls))
        del collapse_calls[:]
        want.append(per_call.khugepaged_scan(ref_state, oracle, max_collapses))
        oracle_calls.append(list(collapse_calls))
        assert state._scan_cursor == ref_state._scan_cursor
        assert space_state(shipped) == space_state(oracle)
    return got, want, shipped_calls, oracle_calls


class TestKhugepagedFreeBlockCheck:
    def test_pressured_host_makes_no_collapse_call(self, collapse_calls):
        asp = mapped_space((0.97, 0.97))
        assert not any(node.can_alloc_huge() for node in asp.phys.nodes)
        got, want, shipped_calls, oracle_calls = _scan_both(
            (0.97, 0.97), collapse_calls, batch=10, scans=4
        )
        assert got == want == [0, 0, 0, 0]
        assert shipped_calls == [[]] * 4
        # The per-chunk loop tried every chunk it scanned, in vain.
        assert [len(calls) for calls in oracle_calls] == [10, 10, 10, 10]

    @pytest.mark.parametrize(
        "pressure, batch, max_collapses, expected",
        [
            # A fresh host collapses every chunk the cursor reaches.
            ((0.0, 0.0), 7, None, [7, 7, 7, 3, 0]),
            ((0.0, 0.0), 10, 3, [3, 3, 3, 3, 3]),
            # One node can still back its chunks: those collapse, the
            # pressured node's fail, so the scan must run.
            ((0.97, 0.0), 10, None, [5, 5, 2, 0, 0]),
        ],
    )
    def test_collapses_the_same_chunks(
        self, collapse_calls, pressure, batch, max_collapses, expected
    ):
        got, want, shipped_calls, oracle_calls = _scan_both(
            pressure, collapse_calls, batch=batch, scans=5,
            max_collapses=max_collapses,
        )
        assert got == want == expected
        assert shipped_calls == oracle_calls


class TestPressuredScenario:
    """A whole colocation under 70% pressure: khugepaged tries nothing,
    and the result is the per-chunk scan's, bit for bit."""

    SCENARIO = ScenarioConfig(
        arrival="fixed-trace",
        machine="A",
        trace=((0, "SSCA.20", "carrefour-lp"), (4, "Kmeans", "thp")),
        max_tenants=2,
        tenant_epochs=10,
        pressure=0.7,
        seed=0,
    )

    @staticmethod
    def _signature(result) -> tuple:
        return (
            result.host_epochs,
            result.pressure_bytes,
            tuple(result.events),
            tuple(
                (
                    t.status,
                    tuple(e.hex() for e in t.result.epoch_times_s),
                    tuple(sorted(t.result.final_page_counts.items())),
                )
                for t in result.tenants
            ),
        )

    def test_no_collapse_attempt_and_same_result(self, collapse_calls, monkeypatch):
        cfg = SimConfig.quick(seed=0)
        shipped = execute_scenario(self.SCENARIO, cfg)
        assert collapse_calls == []
        monkeypatch.setattr(engine, "khugepaged_scan", per_call.khugepaged_scan)
        oracle = execute_scenario(self.SCENARIO, cfg)
        # The per-chunk scan reaches the same result in 6,040 attempts.
        assert len(collapse_calls) == 6040
        assert self._signature(shipped) == self._signature(oracle)
