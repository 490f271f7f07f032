"""Epoch-level runtime invariant checking for the simulation engine.

The simulation is only trustworthy if every epoch leaves the system in
a physically consistent state: page migration and huge-page
splitting/promotion must conserve frames, hardware counters must be
sane and monotonic, and allocator accounting must balance.  With
``REPRO_CHECK=1`` in the environment, every
:class:`~repro.sim.host.Host` (a single run is a one-tenant host) runs
one :class:`InvariantChecker` after each tenant's epoch, after each
host epoch and as each tenant leaves, and raises a structured
:class:`InvariantViolation` — carrying the workload/machine/policy/epoch
context — the moment any of these properties breaks, instead of letting
corruption surface as a mysterious golden-file diff three experiments
later.

All checks are vectorised (numpy reductions over the address-space
arrays).  Even so they add about 9-22% to a cold artifact; the README's
``REPRO_CHECK`` section records the measured overhead per artifact.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.vm.layout import CHUNKS_2M_PER_1G, GRANULES_PER_2M, PAGE_4K, PageSize

#: Static-analysis registry (rule R101): the checker observes, it never
#: repairs — a checker that mutated state would invalidate the very
#: runs it certifies.  R101 also protects this module by
#: default, so deleting this declaration does not disable the check.
_RESULT_NEUTRAL = ("analysis.invariants",)

#: Cumulative counter totals that must never decrease across epochs.
_MONOTONIC_COUNTERS = (
    "instructions",
    "mem_accesses",
    "l2_data_misses",
    "walk_l2_misses",
    "tlb_misses",
    "page_faults_4k",
    "page_faults_2m",
    "page_faults_1g",
)

#: Action-summary fields reconciled between the executor's lifetime
#: totals and the engine's per-interval action log.  Exact equality is
#: safe, floats included: ``ActionExecutor.run_interval`` merges each
#: interval summary into the totals in log order, so both sides
#: accumulate in the identical sequence.
_ACTION_FIELDS = (
    "migrated_4k",
    "migrated_2m",
    "bytes_migrated",
    "splits_2m",
    "splits_1g",
    "collapses_2m",
    "replicated_pages",
    "bytes_replicated",
    "pages_reclaimed",
    "bytes_reclaimed",
    "compute_s",
)


class InvariantViolation(SimulationError):
    """A runtime invariant failed, with the run context attached."""

    def __init__(
        self,
        detail: str,
        *,
        workload: Optional[str] = None,
        machine: Optional[str] = None,
        policy: Optional[str] = None,
        epoch: Optional[int] = None,
    ) -> None:
        self.detail = detail
        self.workload = workload
        self.machine = machine
        self.policy = policy
        self.epoch = epoch
        context = ", ".join(
            f"{name}={value}"
            for name, value in (
                ("workload", workload),
                ("machine", machine),
                ("policy", policy),
                ("epoch", epoch),
            )
            if value is not None
        )
        super().__init__(f"{detail} [{context}]" if context else detail)


# ----------------------------------------------------------------------
# Stateless checks (usable directly from tests)
# ----------------------------------------------------------------------
def check_address_space(asp) -> None:
    """Mapping/bookkeeping consistency of one :class:`AddressSpace`.

    Vectorised, so it is fast enough to run every epoch; tests call it
    directly after each mutation they exercise:

    * no granule is covered by two backing sizes at once,
    * ``mapped_count_2m`` matches the 4KB map exactly (so a 2MB split
      produced exactly 512 children and a collapse consumed them),
    * every live huge/giga page has a home node,
    * replication flags, the replicated-page count and the replica
      byte counter are in sync.

    The 4KB map is read once, as a ``bool`` mask counted per 2MB chunk;
    every other check works on those counts and the per-chunk arrays,
    so a call allocates one byte per granule and no index array.
    """
    mapped = asp.node4k >= 0
    counted = _count_per_chunk(mapped)
    has_4k = counted > 0
    huge_chunks = np.flatnonzero(asp.huge)
    giga_chunks = np.flatnonzero(asp.giga)
    giga_of_chunk = np.repeat(asp.giga, CHUNKS_2M_PER_1G)[: asp.n_chunks_2m]

    if np.any(asp.huge & has_4k):
        raise InvariantViolation("4KB mapping inside a 2MB huge page")
    if np.any(giga_of_chunk & has_4k):
        raise InvariantViolation("4KB mapping inside a 1GB page")
    if np.any(giga_of_chunk & asp.huge):
        raise InvariantViolation("2MB huge page inside a 1GB page")

    if not np.array_equal(counted, asp.mapped_count_2m.astype(np.int64)):
        bad = int(np.flatnonzero(counted != asp.mapped_count_2m)[0])
        raise InvariantViolation(
            f"mapped_count_2m out of sync at chunk {bad}: "
            f"counted {int(counted[bad])}, "
            f"recorded {int(asp.mapped_count_2m[bad])} "
            f"(a 2MB split must yield exactly {GRANULES_PER_2M} children)"
        )
    if np.any(asp.mapped_count_2m < 0) or np.any(
        asp.mapped_count_2m > GRANULES_PER_2M
    ):
        raise InvariantViolation("mapped_count_2m outside [0, 512]")

    if huge_chunks.size and np.any(asp.node2m[huge_chunks] < 0):
        raise InvariantViolation("live 2MB page without a home node")
    if giga_chunks.size and np.any(asp.node1g[giga_chunks] < 0):
        raise InvariantViolation("live 1GB page without a home node")

    n_replicated_4k = int(np.count_nonzero(asp.replicated_4k))
    mapped &= asp.replicated_4k  # now: replicated and mapped
    if int(np.count_nonzero(mapped)) != n_replicated_4k:
        raise InvariantViolation("replicated granule without a mapping")
    if np.any(asp.replicated_2m & ~asp.huge):
        raise InvariantViolation("replicated 2MB chunk is not huge-backed")
    expected_replicas = (
        n_replicated_4k * (asp.n_nodes - 1) * PAGE_4K
        + int(np.count_nonzero(asp.replicated_2m))
        * (asp.n_nodes - 1)
        * int(PageSize.SIZE_2M)
    )
    if expected_replicas != asp.replica_bytes:
        raise InvariantViolation(
            f"replica byte counter out of sync: expected "
            f"{expected_replicas}, recorded {asp.replica_bytes}"
        )
    flagged = n_replicated_4k + int(np.count_nonzero(asp.replicated_2m))
    if flagged != asp.replicated_pages:
        raise InvariantViolation(
            f"replicated page count out of sync: {flagged} flagged, "
            f"recorded {asp.replicated_pages} (translation skips the "
            "replication gathers while the count is zero)"
        )


def _count_per_chunk(mask: np.ndarray) -> np.ndarray:
    """Set flags in each run of :data:`GRANULES_PER_2M` granules of
    ``mask`` (the last run may be short), as ``int64`` per chunk."""
    n_full = mask.size - mask.size % GRANULES_PER_2M
    counts = np.count_nonzero(
        mask[:n_full].reshape(-1, GRANULES_PER_2M), axis=1
    ).astype(np.int64, copy=False)
    if n_full == mask.size:
        return counts
    return np.append(counts, np.count_nonzero(mask[n_full:]))


def layout_arrays(asp) -> tuple:
    """Copies of the arrays :attr:`AddressSpace.layout_version` covers."""
    return (asp.mapped_count_2m.copy(), asp.huge.copy(), asp.giga.copy())


def check_layout_version(asp, version: int, arrays: tuple) -> None:
    """The page-size layout changed only with a ``layout_version`` bump.

    ``arrays`` are :func:`layout_arrays` taken when the space's
    ``layout_version`` was ``version``.  Caches keyed on the layout
    version (TLB classifications, sample tables) would serve stale
    values after a change the counter missed.
    """
    if asp.layout_version != version:
        return
    for name, before, now in zip(
        ("mapped_count_2m", "huge", "giga"),
        arrays,
        (asp.mapped_count_2m, asp.huge, asp.giga),
    ):
        if not np.array_equal(before, now):
            raise InvariantViolation(
                f"{name} changed without a layout_version bump "
                f"(still {version})"
            )


def check_physical_memory(phys) -> None:
    """Frame-allocator accounting: free + used == total on every node."""
    for node in phys.nodes:
        node.buddy.check_accounting()
        total = node.buddy.total_frames * PAGE_4K
        if node.used_bytes + node.free_bytes != total:
            raise InvariantViolation(
                f"node {node.node_id}: used ({node.used_bytes}) + free "
                f"({node.free_bytes}) != total ({total})"
            )
        if node.pool_stats().free_frames_in_pool < 0:
            raise InvariantViolation(
                f"node {node.node_id}: negative small-frame pool"
            )


def _expected_bytes_per_node(asp) -> np.ndarray:
    """Allocator bytes one address space should occupy on each node:
    home mappings plus the replica copies it holds elsewhere."""
    expected = asp.bytes_per_node().astype(np.int64)

    n_rep4 = int(np.count_nonzero(asp.replicated_4k))
    if n_rep4:
        homes = asp.node4k[asp.replicated_4k].astype(np.int64)
        home_counts = np.bincount(homes, minlength=asp.n_nodes)
        expected += (n_rep4 - home_counts) * PAGE_4K
    for backing_id in sorted(asp._replica_blocks):
        for node in sorted(asp._replica_blocks[backing_id]):
            expected[node] += int(PageSize.SIZE_2M)
    return expected


def check_host_conservation(phys, address_spaces) -> None:
    """Pages are neither created nor lost on a (shared) allocator.

    Allocator usage on every node must equal the bytes the given
    address spaces map there plus the replica copies they hold there
    (plus pinned pressure).  For one address space, a migration or
    split that leaked or double-freed frames breaks this at once.
    Across tenants, matching the sum exactly proves, at the accounting
    level, that no frame is owned by two tenants (double ownership would
    make the sum exceed usage) and that departed tenants returned every
    page (a leak would make usage exceed the sum).
    """
    n_nodes = len(phys.nodes)
    expected = np.zeros(n_nodes, dtype=np.int64)
    for asp in address_spaces:
        if asp.phys is not phys:
            raise InvariantViolation(
                f"address space '{asp.label}' is not backed by the "
                "host's allocator"
            )
        expected += _expected_bytes_per_node(asp)
    for node in phys.nodes:
        want = int(expected[node.node_id]) + node.pinned_bytes
        if node.used_bytes != want:
            raise InvariantViolation(
                f"cross-tenant page conservation broken on node "
                f"{node.node_id}: allocator reports {node.used_bytes} "
                f"bytes used, tenant mappings account for {want}"
            )


def check_tenant_released(asp) -> None:
    """A released / OOM-killed tenant left nothing behind."""
    if asp.mapped_bytes() != 0:
        raise InvariantViolation(
            f"released tenant '{asp.label}' still maps "
            f"{asp.mapped_bytes()} bytes"
        )
    if asp.replica_bytes != 0:
        raise InvariantViolation(
            f"released tenant '{asp.label}' still holds "
            f"{asp.replica_bytes} replica bytes"
        )


def check_epoch_counters(counters, n_nodes: int) -> None:
    """One epoch's counters: finite, non-negative, with LAR in [0, 1]."""
    if counters.traffic.shape != (n_nodes, n_nodes):
        raise InvariantViolation(
            f"traffic matrix shape {counters.traffic.shape} != "
            f"({n_nodes}, {n_nodes})"
        )
    if not np.all(np.isfinite(counters.traffic)):
        raise InvariantViolation("non-finite traffic entry")
    if np.any(counters.traffic < 0):
        raise InvariantViolation("negative traffic entry")
    total = float(counters.traffic.sum())
    local = float(np.trace(counters.traffic))
    if total > 0:
        lar = local / total
        if not 0.0 <= lar <= 1.0:
            raise InvariantViolation(f"LAR {lar} outside [0, 1]")
    for name in _MONOTONIC_COUNTERS + (
        "duration_s",
        "daemon_time_s",
        "time_cpu_s",
        "time_dram_s",
        "time_walk_s",
        "time_fault_s",
        "time_ibs_s",
    ):
        value = float(getattr(counters, name))
        if not np.isfinite(value):
            raise InvariantViolation(f"counter {name} is not finite")
        if value < 0:
            raise InvariantViolation(f"counter {name} is negative ({value})")


def check_action_conservation(sim) -> None:
    """Decisions in == actions out, between a tenant's executor and its
    action log.

    Every decision the executor saw was either applied or skipped, and
    the per-interval summaries the engine logged (and priced) sum to
    exactly the executor's lifetime totals — i.e. no policy action
    bypassed the executor and no accounted work lacks a logged decision
    path.
    """
    executor = sim.executor
    seen = executor.decisions_seen
    applied = executor.decisions_applied
    skipped = executor.decisions_skipped
    if seen != applied + skipped:
        raise InvariantViolation(
            f"decision conservation broken: {seen} seen != "
            f"{applied} applied + {skipped} skipped"
        )
    for name in _ACTION_FIELDS:
        logged = sum(getattr(summary, name) for _, summary in sim.action_log)
        total = getattr(executor.totals, name)
        if logged != total:
            raise InvariantViolation(
                f"action conservation broken for {name}: action log "
                f"sums to {logged}, executor totals say {total}"
            )


# ----------------------------------------------------------------------
# The host's checker
# ----------------------------------------------------------------------
class _TenantHistory(NamedTuple):
    """What one tenant's next epoch is checked against."""

    #: Cumulative totals of the monotonic counters.
    totals: Dict[str, float]
    sim_time_s: float
    #: Mapped plus reclaimed bytes.
    footprint: int
    #: ``(layout_version, layout_arrays)``, or ``None`` before any epoch.
    layout: Optional[Tuple[int, tuple]]


_FIRST_EPOCH = _TenantHistory({}, 0.0, 0, None)


def _in_run_context(exc: InvariantViolation, sim) -> InvariantViolation:
    """A stateless check's violation again, naming the tenant's run."""
    return InvariantViolation(
        exc.detail,
        workload=sim.instance.name,
        machine=sim.machine.name,
        policy=sim.policy.name,
        epoch=sim.epoch,
    )


class InvariantChecker:
    """Runs every runtime invariant of one host and its tenants.

    The :class:`~repro.sim.host.Host` builds one under ``REPRO_CHECK``
    and calls it at three points, handing it the tenant or the host
    each time, so the checker refers to neither:

    * :meth:`after_tenant_epoch` right after each tenant's epoch: the
      tenant's mappings, layout version, counters, clock, footprint and
      action conservation.  The cross-epoch state these need
      (cumulative counters, simulated time, mapped footprint, none of
      which may ever decrease) is kept by tenant id;
    * :meth:`after_host_epoch` once per host epoch: allocator
      accounting and cross-tenant page conservation over the address
      spaces that still hold frames;
    * :meth:`after_departure` once as a tenant leaves (release, OOM
      kill or eviction): it returned every page.
    """

    def __init__(self) -> None:
        self._history: Dict[int, _TenantHistory] = {}

    def after_tenant_epoch(self, sim) -> None:
        """Validate one tenant's state after the epoch it just ran."""
        before = self._history.get(sim.tenant_id, _FIRST_EPOCH)
        latest = sim.bank.epochs[-1] if sim.bank.epochs else None
        totals = dict(before.totals)
        try:
            check_address_space(sim.asp)
            if before.layout is not None:
                check_layout_version(sim.asp, *before.layout)
            if latest is not None:
                check_epoch_counters(latest, sim.machine.n_nodes)
                if latest.epoch != sim.epoch:
                    raise InvariantViolation(
                        f"latest counters are for epoch {latest.epoch}, "
                        f"expected {sim.epoch}"
                    )
            if sim.sim_time_s < before.sim_time_s:
                raise InvariantViolation(
                    f"simulated time went backwards: {sim.sim_time_s} < "
                    f"{before.sim_time_s}"
                )
            # Footprint only shrinks through accounted reclaim: mapped
            # plus the cumulative reclaimed/released byte counter is
            # monotonic, so an unaccounted unmap still surfaces as lost
            # pages.
            footprint = sim.asp.mapped_bytes() + sim.asp.reclaimed_bytes
            if footprint < before.footprint:
                raise InvariantViolation(
                    f"mapped + reclaimed footprint shrank: {footprint} < "
                    f"{before.footprint} (nothing unmaps without reclaim "
                    "accounting, so pages were lost)"
                )
            if latest is not None:
                for name in _MONOTONIC_COUNTERS:
                    previous = totals.get(name, 0.0)
                    totals[name] = previous + float(getattr(latest, name))
                    if totals[name] < previous:
                        raise InvariantViolation(
                            f"cumulative counter {name} decreased"
                        )
            check_action_conservation(sim)
        except InvariantViolation as exc:
            raise _in_run_context(exc, sim) from None
        self._history[sim.tenant_id] = _TenantHistory(
            totals,
            sim.sim_time_s,
            footprint,
            (sim.asp.layout_version, layout_arrays(sim.asp)),
        )

    def after_host_epoch(self, host) -> None:
        """Validate the shared allocator against every address space
        that holds frames on it."""
        try:
            check_physical_memory(host.phys)
            check_host_conservation(host.phys, host.address_spaces.values())
        except InvariantViolation as exc:
            raise InvariantViolation(
                exc.detail, machine=host.machine.name, epoch=host.epoch
            ) from None

    def after_departure(self, sim) -> None:
        """A tenant that just left holds nothing; forget its history."""
        self._history.pop(sim.tenant_id, None)
        try:
            check_tenant_released(sim.asp)
        except InvariantViolation as exc:
            raise _in_run_context(exc, sim) from None
