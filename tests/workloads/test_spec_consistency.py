"""Consistency checks for every benchmark model, without simulation.

For each of the 21 workloads: premapping must cover everything the
access streams touch (no stray faults after the allocation schedule
completes), placement must respect physical-memory accounting, and the
declared TLB geometry must stay within the region extents.
"""

import numpy as np
import pytest

from repro._util import rng_for
from repro.analysis.invariants import check_address_space
from repro.vm.address_space import AddressSpace
from repro.vm.frame_allocator import PhysicalMemory
from repro.workloads.registry import FIGURE1_ORDER, get_workload
from tests.per_thread_streams import shipped_stream

ALL_BENCHMARKS = FIGURE1_ORDER + ["streamcluster"]


def materialise(name, machine, thp, epochs=None):
    inst = get_workload(name).instantiate(machine, scale=0.25, seed=0)
    phys = PhysicalMemory.for_topology(machine)
    asp = AddressSpace(inst.n_granules, phys)
    nodes = machine.core_to_node[: inst.n_threads].astype(np.int64)
    n_epochs = epochs if epochs is not None else inst.total_epochs
    for epoch in range(n_epochs):
        inst.premap_epoch(epoch, asp, nodes, thp)
    return inst, asp


@pytest.mark.parametrize("name", ALL_BENCHMARKS)
class TestSpecConsistency:
    def test_streams_only_touch_premapped_memory(self, name, machine_a_topo):
        inst, asp = materialise(name, machine_a_topo, thp=True)
        for epoch in (0, inst.total_epochs - 1):
            for thread in (0, inst.n_threads - 1):
                g, _ = shipped_stream(
                    inst,
                    thread,
                    epoch,
                    rng_for(inst.seed, inst.name, "stream", thread, epoch),
                    512,
                )
                homes = asp.home_nodes(g)
                assert np.all(homes >= 0), (
                    f"{name}: epoch {epoch} thread {thread} touches"
                    " unmapped memory after full premap"
                )

    def test_premap_accounting_consistent(self, name, machine_a_topo):
        inst, asp = materialise(name, machine_a_topo, thp=True)
        check_address_space(asp)
        assert asp.phys.total_used_bytes == asp.mapped_bytes()

    def test_premap_4k_and_thp_cover_same_extent(self, name, machine_a_topo):
        _, asp_4k = materialise(name, machine_a_topo, thp=False)
        _, asp_2m = materialise(name, machine_a_topo, thp=True)
        assert asp_4k.mapped_bytes() == asp_2m.mapped_bytes()

    def test_tlb_groups_within_extents(self, name, machine_a_topo):
        inst, _ = materialise(name, machine_a_topo, thp=True, epochs=1)
        for thread in (0, inst.n_threads // 2):
            for group in inst.tlb_groups(thread, 0):
                assert 0 <= group.lo <= group.hi <= inst.n_granules
                assert group.weight >= 0

    def test_placement_uses_multiple_nodes(self, name, machine_a_topo):
        _, asp = materialise(name, machine_a_topo, thp=False)
        per_node = asp.bytes_per_node()
        # First-touch placement must not put literally everything on
        # one node unless the workload is master-initialised; even
        # those have per-thread private regions elsewhere.
        assert np.count_nonzero(per_node) >= 2
