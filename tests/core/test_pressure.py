"""Watermark logic of the memory-pressure policy."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.invariants import check_address_space
from repro.core.pressure import MemoryPressurePolicy
from repro.hardware.ibs import IbsSamples
from repro.sim.engine import ActionExecutor, PageTableState
from repro.sim.policy import PolicyActionSummary
from repro.vm.address_space import AddressSpace
from repro.vm.frame_allocator import PhysicalMemory
from repro.vm.layout import GRANULES_PER_2M, PAGE_4K
from repro.vm.thp import ThpState
from tests import per_call_pressure as per_call

MIB = 1 << 20


def make_sim(n_chunks=4, n_nodes=2, dram=64 * MIB):
    phys = PhysicalMemory([dram] * n_nodes)
    asp = AddressSpace(n_chunks * GRANULES_PER_2M, phys)
    return SimpleNamespace(
        asp=asp,
        phys=phys,
        thp=ThpState(),
        page_tables=PageTableState(),
        machine=SimpleNamespace(n_nodes=n_nodes),
    )


def drive(policy, sim):
    executor = ActionExecutor()
    summary = PolicyActionSummary()
    executor.drive(sim, policy.decide(sim, IbsSamples.empty(), None), summary)
    return summary


def pin_to_free_fraction(sim, fraction):
    """Pin enough of every node that ``fraction`` of memory stays free.

    Shipped pins last as long as the node, so these go through the
    per-call oracle (``tests/per_call_pressure.py``): it leaves the free
    lists exactly as ``NodeMemory.pin_fragmented`` does, but records
    each pin as an allocated block.  Returns each node's pinned buddy
    blocks, for :func:`unpin`.
    """
    pins = []
    for node in sim.phys.nodes:
        before = set(node.buddy._allocated)
        per_call.pin_fragmented(node, int(node.free_bytes * (1.0 - fraction)))
        pins.append([
            (start, order)
            for start, order in node.buddy._allocated.items()
            if start not in before
        ])
    return pins


def unpin(sim, pins):
    """Lift pressure: free the blocks :func:`pin_to_free_fraction` pinned."""
    for node, blocks in zip(sim.phys.nodes, pins):
        for start, order in blocks:
            node.buddy.free(start, order)


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"low_watermark": -0.1},
            {"low_watermark": 0.5, "high_watermark": 0.5},
            {"high_watermark": 1.5},
            {"batch_granules": 0},
            {"batch_granules": -1},
        ],
    )
    def test_bad_arguments_rejected(self, kwargs):
        with pytest.raises(ValueError):
            MemoryPressurePolicy(**kwargs)

    def test_name_defaults(self):
        assert MemoryPressurePolicy().name == "pressure-reclaim"
        assert MemoryPressurePolicy(name="x").name == "x"

    def test_no_ibs(self):
        assert not MemoryPressurePolicy().wants_ibs()


class TestWatermarks:
    def test_idle_above_low_watermark(self):
        sim = make_sim()
        sim.asp.fault_in(np.arange(64), node=0, thp_alloc=False)
        summary = drive(MemoryPressurePolicy(), sim)
        # No decision at all: the free fraction is ~1.
        assert summary.pages_reclaimed == 0
        assert summary.notes == []

    def test_reclaims_below_low_watermark(self):
        sim = make_sim()
        sim.thp.enable_alloc()
        sim.asp.fault_in(np.arange(256), node=0, thp_alloc=False)
        pin_to_free_fraction(sim, 0.05)
        policy = MemoryPressurePolicy(batch_granules=128)
        summary = drive(policy, sim)
        assert summary.pages_reclaimed == 128
        assert summary.bytes_reclaimed == 128 * PAGE_4K
        assert not sim.thp.alloc_enabled  # THP allocation suppressed
        assert any("pressure reclaim" in note for note in summary.notes)
        check_address_space(sim.asp)

    def test_victims_are_highest_addresses(self):
        sim = make_sim()
        sim.asp.fault_in(np.arange(256), node=0, thp_alloc=False)
        policy = MemoryPressurePolicy(batch_granules=64)
        victims = policy._victims(sim)
        assert victims.tolist() == list(range(192, 256))

    def test_victims_deterministic(self):
        sim = make_sim()
        sim.asp.fault_in(np.arange(300), node=1, thp_alloc=False)
        policy = MemoryPressurePolicy(batch_granules=50)
        assert np.array_equal(policy._victims(sim), policy._victims(sim))

    def test_thp_reenabled_above_high_watermark(self):
        sim = make_sim()
        sim.thp.enable_alloc()
        sim.asp.fault_in(np.arange(256), node=0, thp_alloc=False)
        pins = pin_to_free_fraction(sim, 0.05)
        policy = MemoryPressurePolicy(batch_granules=128)
        drive(policy, sim)
        assert policy._thp_suppressed
        # Pressure lifts: the pins go away, free fraction recovers.
        unpin(sim, pins)
        drive(policy, sim)
        assert not policy._thp_suppressed
        assert sim.thp.alloc_enabled

    def test_between_watermarks_holds_state(self):
        sim = make_sim()
        sim.thp.enable_alloc()
        sim.asp.fault_in(np.arange(256), node=0, thp_alloc=False)
        pins = pin_to_free_fraction(sim, 0.05)
        policy = MemoryPressurePolicy(
            low_watermark=0.10, high_watermark=0.60, batch_granules=64
        )
        drive(policy, sim)
        assert policy._thp_suppressed
        # Recover to ~0.5: above low, below high -> no flapping.
        unpin(sim, pins)
        pin_to_free_fraction(sim, 0.5)
        summary = drive(policy, sim)
        assert policy._thp_suppressed
        assert not sim.thp.alloc_enabled
        assert summary.pages_reclaimed == 0

    def test_setup_honours_thp_flag(self):
        sim = make_sim()
        MemoryPressurePolicy(thp=True).setup(sim)
        assert sim.thp.alloc_enabled and sim.thp.promotion_enabled
        MemoryPressurePolicy(thp=False).setup(sim)
        assert not sim.thp.alloc_enabled and not sim.thp.promotion_enabled
