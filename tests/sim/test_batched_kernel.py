"""The batched migration kernel against its per-page reference.

``AddressSpace.migrate_backings`` and the batched Carrefour and AutoNUMA
deciders must leave exactly the state the per-page loops in
``tests/per_page_kernel.py`` leave: node arrays, block ids, every
node's buddy free lists (in iteration order), allocated map and pool
counters, the per-entry bytes, the interval summaries and notes, the
deciders' private state and their generators' ``bit_generator.state``.
"""

from __future__ import annotations

import copy
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.invariants import check_address_space
from repro.core.autonuma import AutoNumaConfig, AutoNumaPolicy
from repro.core.carrefour import CarrefourConfig, CarrefourEngine
from repro.core.metrics import PageSampleTable
from repro.errors import MappingError
from repro.experiments.configs import make_policy
from repro.hardware.counters import CounterBank
from repro.hardware.ibs import IbsSamples
from repro.hardware.machines import machine_by_name
from repro.sim.config import SimConfig
from repro.sim.engine import ActionExecutor, PageTableState, Simulation
from repro.sim.policy import PolicyActionSummary
from repro.sim.trace import DecisionTrace
from repro.vm.address_space import (
    AddressSpace,
    BACKING_ID_1G_OFFSET,
    BACKING_ID_2M_OFFSET,
)
from repro.vm.frame_allocator import PhysicalMemory
from repro.vm.layout import GRANULES_PER_1G, GRANULES_PER_2M, PAGE_4K
from repro.vm.thp import ThpState
from repro.workloads.registry import get_workload
from tests.per_page_kernel import (
    PerPageAutoNumaPolicy,
    PerPageCarrefourEngine,
    PerPageExecutor,
    migrate_backing_loop,
)
from tests.vm_helpers import node_of_backing

MIB = 1 << 20

_SPACE_ARRAYS = (
    "node4k",
    "huge",
    "node2m",
    "_block2m",
    "giga",
    "node1g",
    "_block1g",
    "replicated_4k",
    "replicated_2m",
    "mapped_count_2m",
)


def allocator_state(phys):
    """Every node's allocator internals, iteration order included."""
    return [
        (
            [list(blocks) for blocks in node.buddy._free],
            list(node.buddy._allocated.items()),
            node.buddy._free_frames,
            node._pool_free,
            list(node._pool_blocks),
        )
        for node in phys.nodes
    ]


def assert_same_state(asp, ref):
    for name in _SPACE_ARRAYS:
        assert np.array_equal(getattr(asp, name), getattr(ref, name)), name
    assert asp.replica_bytes == ref.replica_bytes
    assert asp._replica_blocks == ref._replica_blocks
    assert allocator_state(asp.phys) == allocator_state(ref.phys)
    check_address_space(asp)


def build_space(rng, n_nodes, node_bytes, n_chunks, giga=0):
    """A randomly populated space: 2MB pages, 4KB runs, replicas, holes."""
    phys = PhysicalMemory([node_bytes] * n_nodes)
    asp = AddressSpace(max(n_chunks * GRANULES_PER_2M, giga * GRANULES_PER_1G), phys)
    for gchunk in range(giga):
        asp.map_range_1g(
            gchunk * GRANULES_PER_1G, GRANULES_PER_1G, int(rng.integers(n_nodes))
        )
    first = giga * GRANULES_PER_1G // GRANULES_PER_2M
    for chunk in range(first, n_chunks):
        kind = rng.integers(4)
        if kind == 0:
            asp.premap_pattern_2m(chunk, np.array([rng.integers(n_nodes)]))
        elif kind in (1, 2):
            lo = int(rng.integers(0, GRANULES_PER_2M // 2)) if kind == 2 else 0
            nodes = rng.integers(0, n_nodes, GRANULES_PER_2M - lo)
            asp.premap_pattern_4k(chunk * GRANULES_PER_2M + lo, nodes)
    live = live_ids(asp)
    for page_id in rng.choice(live, size=min(12, live.size), replace=False):
        if page_id < BACKING_ID_1G_OFFSET:
            asp.replicate_backing(int(page_id))
    return asp


def live_ids(asp):
    return np.concatenate(
        [
            np.flatnonzero(asp.node4k >= 0),
            np.flatnonzero(asp.huge) + BACKING_ID_2M_OFFSET,
            np.flatnonzero(asp.giga) + BACKING_ID_1G_OFFSET,
        ]
    ).astype(np.int64)


def random_batch(rng, asp, n_nodes, size):
    ids = rng.permutation(live_ids(asp))[:size]
    # Long same-target stretches push 4KB runs across the pool's
    # 512-frame block boundary on both ends.
    targets = np.repeat(
        rng.integers(0, n_nodes, ids.size // 700 + 1), 700
    )[: ids.size]
    mixed = rng.random(ids.size) < 0.3
    targets[mixed] = rng.integers(0, n_nodes, int(mixed.sum()))
    return ids, targets


def twins(asp):
    """Two identical copies.  Copying rebuilds the buddy's free-list
    sets, whose pop order follows their build history, so both sides
    must be copies made the same way."""
    return copy.deepcopy(asp), copy.deepcopy(asp)


def check_batch(asp, ids, targets, budget, skip=None):
    """Run the batch and the per-page loop on twins of ``asp``; return
    the batch's result and its copy of the space."""
    asp, ref = twins(asp)
    version = asp.version
    scalar = asp.migrate_backing
    asp.pool_steps = 0

    def counted(backing_id, dst_node):
        # 4KB entries reach the scalar path only where a pool acts.
        asp.pool_steps += backing_id < BACKING_ID_2M_OFFSET
        return scalar(backing_id, dst_node)

    asp.migrate_backing = counted
    moved, reached = asp.migrate_backings(ids, targets, budget, skip=skip)
    del asp.migrate_backing
    want, want_reached = migrate_backing_loop(ref, ids, targets, budget, skip)
    assert reached == want_reached
    assert np.array_equal(moved, want)
    assert_same_state(asp, ref)
    assert (asp.version != version) == bool(moved.any())
    return moved, reached, asp


class TestMigrateBackings:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_batches_match_the_per_page_loop(self, seed):
        rng = np.random.default_rng(seed)
        n_nodes = int(rng.integers(2, 5))
        asp = build_space(rng, n_nodes, 64 * MIB, n_chunks=40)
        for budget in (1 << 40, int(rng.integers(1, 600)) * PAGE_4K, 3 * MIB, 0):
            ids, targets = random_batch(rng, asp, n_nodes, 6000)
            skip = rng.random(ids.size) < 0.05 if seed % 2 else None
            moved, _, asp = check_batch(asp, ids, targets, budget, skip)
            if budget == 1 << 40:
                # Pools carved and returned blocks mid-run, yet most
                # moves took the array path.
                moved_4k = np.count_nonzero(moved == PAGE_4K)
                assert 0 < asp.pool_steps < moved_4k // 8

    def test_budget_cut_mid_batch_stops_after_the_spending_entry(self):
        rng = np.random.default_rng(11)
        asp = build_space(rng, 2, 64 * MIB, n_chunks=16)
        ids, targets = random_batch(rng, asp, 2, 3000)
        moved, reached, _ = check_batch(asp, ids, targets, 1000 * PAGE_4K + 1)
        assert 0 < reached < ids.size
        assert moved[reached - 1] > 0
        assert moved[:reached - 1].sum() < 1000 * PAGE_4K + 1 <= moved.sum()

    def test_zero_budget_reaches_nothing(self):
        rng = np.random.default_rng(12)
        asp = build_space(rng, 2, 64 * MIB, n_chunks=8)
        ids, targets = random_batch(rng, asp, 2, 500)
        moved, reached, _ = check_batch(asp, ids, targets, 0)
        assert reached == 0 and not moved.any()

    def test_giga_pages_in_the_mix(self):
        rng = np.random.default_rng(13)
        asp = build_space(rng, 2, 3 << 30, n_chunks=560, giga=1)
        assert asp.giga[0]
        ids, targets = random_batch(rng, asp, 2, 6000)
        ids = ids[ids < BACKING_ID_1G_OFFSET]
        targets = targets[: ids.size]
        # The 1GB page sits mid-batch, between two 4KB runs.
        mid = ids.size // 2
        ids = np.insert(ids, mid, BACKING_ID_1G_OFFSET)
        targets = np.insert(targets, mid, 1 - asp.node1g[0])
        moved, _, _ = check_batch(asp, ids, targets, 1 << 40)
        assert moved[mid] == GRANULES_PER_1G * PAGE_4K

    def test_full_destination(self):
        rng = np.random.default_rng(14)
        asp = build_space(rng, 2, 64 * MIB, n_chunks=24)
        # Leave node 1 a handful of scattered frames and no 2MB block.
        node = asp.phys[1]
        node.pin_fragmented(node.free_bytes - 40 * PAGE_4K)
        on_node0 = np.concatenate(
            [
                np.flatnonzero(asp.node4k == 0),
                np.flatnonzero(asp.huge & (asp.node2m == 0)) + BACKING_ID_2M_OFFSET,
            ]
        )
        ids = rng.permutation(on_node0)[:1500]
        moved, _, asp = check_batch(
            asp, ids, np.ones(ids.size, dtype=np.int64), 1 << 40
        )
        assert 0 < np.count_nonzero(moved) < ids.size
        assert asp.phys[1].free_bytes == 0

    def test_already_local_and_replicated_entries_move_nothing(self):
        rng = np.random.default_rng(15)
        asp = build_space(rng, 2, 64 * MIB, n_chunks=8)
        replicated = np.flatnonzero(asp.replicated_4k)
        ids = np.concatenate([replicated, live_ids(asp)[:50]])
        ids = np.unique(ids)
        targets = np.array([node_of_backing(asp, int(i)) for i in ids])
        targets[np.isin(ids, replicated)] ^= 1
        moved, reached, _ = check_batch(asp, ids, targets, 1 << 40)
        assert reached == ids.size and not moved.any()

    def test_duplicate_ids_are_rejected_before_any_change(self):
        rng = np.random.default_rng(16)
        asp, ref = twins(build_space(rng, 2, 64 * MIB, n_chunks=8))
        ids = live_ids(asp)[:10]
        ids = np.concatenate([ids, ids[3:4]])
        with pytest.raises(MappingError, match="twice"):
            asp.migrate_backings(ids, np.ones(ids.size, dtype=np.int64), 1 << 40)
        assert_same_state(asp, ref)

    def test_dead_ids_rejected_unless_skipped(self):
        rng = np.random.default_rng(17)
        asp = build_space(rng, 2, 64 * MIB, n_chunks=8)
        dead = np.flatnonzero(asp.node4k < 0)[:1]
        ids = np.concatenate([live_ids(asp)[:5], dead])
        targets = np.ones(ids.size, dtype=np.int64)
        with pytest.raises(MappingError, match="not live"):
            asp.migrate_backings(ids, targets, 1 << 40)
        skip = np.zeros(ids.size, dtype=bool)
        skip[-1] = True
        check_batch(asp, ids, targets, 1 << 40, skip)

    def test_backings_live_matches_backing_is_live(self):
        rng = np.random.default_rng(18)
        asp = build_space(rng, 2, 3 << 30, n_chunks=520, giga=1)
        probes = np.concatenate(
            [
                np.arange(-2, asp.n_granules + 2, 97),
                BACKING_ID_2M_OFFSET + np.arange(asp.n_chunks_2m + 3),
                BACKING_ID_1G_OFFSET + np.arange(asp.n_chunks_1g + 2),
            ]
        )
        want = [asp.backing_is_live(int(i)) for i in probes]
        assert asp.backings_live(probes).tolist() == want


def test_vector_draw_equals_scalar_draws():
    """``integers(0, n, size=k)`` consumes the stream exactly like k
    scalar draws on the installed numpy; the batched Carrefour decider
    relies on it to keep its interleave targets pinned."""
    for n in (2, 3, 4, 8):
        for k in (1, 2, 7, 64, 1000):
            vector = np.random.default_rng(n * 1000 + k)
            scalar = np.random.default_rng(n * 1000 + k)
            drawn = vector.integers(0, n, size=k)
            assert drawn.tolist() == [int(scalar.integers(0, n)) for _ in range(k)]
            assert vector.bit_generator.state == scalar.bit_generator.state


# ----------------------------------------------------------------------
# Deciders
# ----------------------------------------------------------------------
def host_for(asp, n_nodes):
    return SimpleNamespace(
        asp=asp,
        thp=ThpState(),
        page_tables=PageTableState(),
        machine=SimpleNamespace(n_nodes=n_nodes),
    )


def random_samples(rng, asp, n_nodes, n):
    """Skewed samples: a few hot, read-mostly pages plus a long tail."""
    mapped = np.flatnonzero(asp.home_nodes(np.arange(asp.n_granules)) >= 0)
    hot = rng.choice(mapped, size=40, replace=False)
    granule = np.where(
        rng.random(n) < 0.4, rng.choice(hot, n), rng.choice(mapped, n)
    )
    return IbsSamples(
        granule=granule.astype(np.int64),
        accessing_node=rng.integers(0, n_nodes, n).astype(np.int8),
        home_node=asp.home_nodes(granule),
        thread=rng.integers(0, 8, n).astype(np.int16),
        from_dram=np.ones(n, dtype=bool),
        is_write=rng.random(n) < 0.02,
    )


def perturb(rng, hosts):
    """Make some table ids stale: split a 2MB page, reclaim 4KB ones."""
    huge = np.flatnonzero(hosts[0].asp.huge & ~hosts[0].asp.replicated_2m)
    small = np.flatnonzero(
        (hosts[0].asp.node4k >= 0) & ~hosts[0].asp.replicated_4k
    )
    chunk = int(rng.choice(huge)) if huge.size else None
    granules = rng.choice(small, size=min(30, small.size), replace=False)
    for host in hosts:
        if chunk is not None:
            host.asp.split_chunk(chunk)
        host.asp.reclaim_granules(granules)


def drive(executor_cls, host, gen):
    summary = PolicyActionSummary()
    executor_cls().drive(host, gen, summary)
    return summary


CARREFOUR_BUDGETS = (512 * MIB, 3 * MIB, 700 * PAGE_4K, 0)


class TestBatchedDeciders:
    @pytest.mark.parametrize("budget", CARREFOUR_BUDGETS)
    @pytest.mark.parametrize("seed", range(3))
    def test_carrefour_matches_per_page_decider(self, seed, budget):
        rng = np.random.default_rng(100 + seed)
        n_nodes = 2 + seed
        asp = build_space(rng, n_nodes, 96 * MIB, n_chunks=40)
        config = CarrefourConfig(max_migration_bytes_per_interval=budget)
        engine = CarrefourEngine(config, seed=seed)
        ref_engine = PerPageCarrefourEngine(config, seed=seed)
        host, ref = (host_for(space, n_nodes) for space in twins(asp))
        seen = PolicyActionSummary()
        for interval in range(4):
            samples = random_samples(rng, host.asp, n_nodes, 4000)
            tables = [
                PageSampleTable.from_samples(samples, h.asp, n_nodes)
                for h in (host, ref)
            ]
            if interval % 2:
                perturb(rng, (host, ref))
            got = drive(
                ActionExecutor, host,
                engine.decide_placement(tables[0], host.asp, n_nodes),
            )
            want = drive(
                PerPageExecutor, ref,
                ref_engine.decide_placement(tables[1], ref.asp, n_nodes),
            )
            assert got == want
            assert_same_state(host.asp, ref.asp)
            assert engine._interleaved == ref_engine._interleaved
            assert (
                engine._rng.bit_generator.state
                == ref_engine._rng.bit_generator.state
            )
            seen.merge(got)
        # The paths under test were taken: a cut mid-batch under the
        # small budgets, replicas from leftover budget under the large.
        if budget == 0:
            assert seen.notes == ["migration budget exhausted"] * 4
        elif budget < 4 * MIB:
            assert "migration budget exhausted" in seen.notes
            assert seen.bytes_migrated > 0
        else:
            assert seen.replicated_pages > 0

    @pytest.mark.parametrize("budget", (256 * MIB, 2 * MIB, 300 * PAGE_4K, 0))
    def test_autonuma_matches_per_page_decider(self, budget):
        rng = np.random.default_rng(7)
        asp = build_space(rng, 3, 96 * MIB, n_chunks=40)
        config = AutoNumaConfig(max_migration_bytes_per_interval=budget)
        policy = AutoNumaPolicy(config=config)
        ref_policy = PerPageAutoNumaPolicy(config=config)
        host, ref = (host_for(space, 3) for space in twins(asp))
        window = CounterBank(3, 4)
        seen = PolicyActionSummary()
        for interval in range(5):
            # Each page mostly faults from one node of its own, so
            # streaks build up and remote pages migrate.
            samples = random_samples(rng, host.asp, 3, 3000)
            samples.accessing_node[:] = np.where(
                rng.random(3000) < 0.85,
                (samples.granule // 7) % 3,
                samples.accessing_node,
            )
            if interval == 3:
                perturb(rng, (host, ref))
            got = drive(ActionExecutor, host, policy.decide(host, samples, window))
            want = drive(
                PerPageExecutor, ref, ref_policy.decide(ref, samples, window)
            )
            assert got == want
            assert_same_state(host.asp, ref.asp)
            assert policy._streaks == ref_policy._streaks
            assert list(policy._streaks) == list(ref_policy._streaks)
            seen.merge(got)
        if budget == 0:
            assert seen.notes == ["migration budget exhausted"] * 5
        else:
            assert seen.bytes_migrated > 0
            exhausted = "migration budget exhausted" in seen.notes
            assert exhausted == (budget < 4 * MIB)


# ----------------------------------------------------------------------
# Stacks: a batch passes over what an earlier member claimed
# ----------------------------------------------------------------------
def per_page(policy):
    """Swap every Carrefour engine in a policy for the per-page one."""
    for member in getattr(policy, "members", (policy,)):
        engine = getattr(member, "engine", None)
        if engine is not None:
            engine.__class__ = PerPageCarrefourEngine
    return policy


def simulate(policy_name, executor_cls, reference):
    config = SimConfig.quick(seed=0)
    topo = machine_by_name("A")
    instance = get_workload("SSCA.20").instantiate(topo, config.scale, config.seed)
    policy = make_policy(policy_name, seed=0)
    if reference:
        per_page(policy)
    sim = Simulation(topo, instance, policy, config=config)
    sim.executor = executor_cls()
    sim.tracer = DecisionTrace()
    result = sim.run()
    return result, sim.executor, sim.tracer


@pytest.mark.parametrize(
    "policy_name", ["carrefour-2m+replication", "carrefour-2m+carrefour-4k"]
)
def test_stacks_match_per_page_claims(policy_name):
    result, executor, _ = simulate(policy_name, ActionExecutor, False)
    want, _, per_page_trace = simulate(policy_name, PerPageExecutor, True)
    assert result.runtime_s == want.runtime_s
    assert result.epoch_times_s == want.epoch_times_s
    assert [s for _, s in result.action_log] == [s for _, s in want.action_log]
    assert executor.totals.bytes_migrated > 0
    if "carrefour-4k" in policy_name:
        # The second Carrefour contends for the first one's pages.
        reasons = {rec["reason"] for rec in per_page_trace.records}
        assert "conflict" in reasons
