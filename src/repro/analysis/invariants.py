"""Epoch-level runtime invariant checking for the simulation engine.

The simulation is only trustworthy if every epoch leaves the system in
a physically consistent state: page migration and huge-page
splitting/promotion must conserve frames, hardware counters must be
sane and monotonic, and allocator accounting must balance.  When
enabled (``REPRO_CHECK=1`` in the environment, or
``SimConfig.check_invariants``), :class:`InvariantChecker` runs after
every epoch and raises a structured :class:`InvariantViolation` —
carrying the workload/machine/policy/epoch context — the moment any of
these properties breaks, instead of letting corruption surface as a
mysterious golden-file diff three experiments later.

All checks are vectorised (numpy reductions over the address-space
arrays), so the cost is a small multiple of one epoch's translation
work; ``BENCH_runner.json`` tracks the measured overhead.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.errors import SimulationError
from repro.options import RuntimeOptions
from repro.vm.layout import GRANULES_PER_2M, PAGE_4K, PageSize, SHIFT_1G, SHIFT_2M

#: Static-analysis registry (rule R101): the checker observes, it never
#: repairs — a checker that mutated state would invalidate the very
#: runs it certifies.  The deep linter also protects this module by
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


def invariants_enabled(config: Optional[object] = None) -> bool:
    """Whether epoch checking is on for a run.

    ``REPRO_CHECK`` wins in both directions when set; otherwise the
    (optional) config's ``check_invariants`` flag decides.
    """
    check = RuntimeOptions.from_env().check
    if check is None:
        return bool(getattr(config, "check_invariants", False))
    return check


# ----------------------------------------------------------------------
# Stateless checks (usable directly from tests)
# ----------------------------------------------------------------------
def check_address_space(asp) -> None:
    """Mapping/bookkeeping consistency of one :class:`AddressSpace`.

    Vectorised equivalent of ``AddressSpace.check_invariants`` (which
    loops per chunk), fast enough to run every epoch:

    * no granule is covered by two backing sizes at once,
    * ``mapped_count_2m`` matches the 4KB map exactly (so a 2MB split
      produced exactly 512 children and a collapse consumed them),
    * every live huge/giga page has a home node,
    * replication flags and the replica byte counter are in sync.
    """
    mapped4 = np.flatnonzero(asp.node4k >= 0)
    huge_chunks = np.flatnonzero(asp.huge)
    giga_chunks = np.flatnonzero(asp.giga)

    if mapped4.size and np.any(asp.huge[mapped4 >> SHIFT_2M]):
        raise InvariantViolation("4KB mapping inside a 2MB huge page")
    if mapped4.size and np.any(asp.giga[mapped4 >> SHIFT_1G]):
        raise InvariantViolation("4KB mapping inside a 1GB page")
    if huge_chunks.size and np.any(
        asp.giga[huge_chunks >> (SHIFT_1G - SHIFT_2M)]
    ):
        raise InvariantViolation("2MB huge page inside a 1GB page")

    counted = np.zeros(asp.n_chunks_2m, dtype=np.int64)
    if mapped4.size:
        counted += np.bincount(
            mapped4 >> SHIFT_2M, minlength=asp.n_chunks_2m
        )
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

    if np.any(asp.replicated_4k & (asp.node4k < 0)):
        raise InvariantViolation("replicated granule without a mapping")
    if np.any(asp.replicated_2m & ~asp.huge):
        raise InvariantViolation("replicated 2MB chunk is not huge-backed")
    expected_replicas = (
        int(np.count_nonzero(asp.replicated_4k)) * (asp.n_nodes - 1) * PAGE_4K
        + int(np.count_nonzero(asp.replicated_2m))
        * (asp.n_nodes - 1)
        * int(PageSize.SIZE_2M)
    )
    if expected_replicas != asp.replica_bytes:
        raise InvariantViolation(
            f"replica byte counter out of sync: expected "
            f"{expected_replicas}, recorded {asp.replica_bytes}"
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


def check_page_conservation(asp) -> None:
    """Pages are neither created nor lost: allocator usage on every
    node equals the bytes mapped there plus replica copies held there.

    A migration or split that leaked/double-freed frames breaks this
    equality on the affected nodes immediately.
    """
    expected = _expected_bytes_per_node(asp)

    for node in asp.phys.nodes:
        want = int(expected[node.node_id]) + node.test_pinned_bytes
        if node.used_bytes != want:
            raise InvariantViolation(
                f"page conservation broken on node {node.node_id}: "
                f"allocator reports {node.used_bytes} bytes used, mappings "
                f"account for {want}"
            )


def check_host_conservation(phys, address_spaces) -> None:
    """Cross-tenant frame conservation on a shared allocator.

    Summing every tenant's expected per-node footprint and matching the
    allocator's used-bytes accounting exactly proves, at the accounting
    level, that no frame is owned by two tenants (double ownership would
    make the sum exceed usage) and that freed tenants returned every
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
        want = int(expected[node.node_id]) + node.test_pinned_bytes
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


# ----------------------------------------------------------------------
# The per-run checker
# ----------------------------------------------------------------------
class InvariantChecker:
    """Runs every invariant after each epoch of one simulation.

    Holds the cross-epoch state needed for monotonicity checks
    (cumulative counters, simulated time, mapped footprint — none of
    which may ever decrease).
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self._prev_totals: Dict[str, float] = {}
        self._prev_sim_time = 0.0
        self._prev_mapped_bytes = 0
        self._epochs_checked = 0

    def _violation(self, exc: InvariantViolation) -> InvariantViolation:
        """Re-raise a stateless check's violation with run context."""
        sim = self.sim
        return InvariantViolation(
            exc.detail,
            workload=sim.instance.name,
            machine=sim.machine.name,
            policy=sim.policy.name,
            epoch=sim.epoch,
        )

    def after_epoch(self, epoch: int) -> None:
        """Validate the complete simulation state after one epoch."""
        sim = self.sim
        try:
            check_address_space(sim.asp)
            if getattr(sim, "owns_phys", True):
                # Shared-allocator tenants see other tenants' frames in
                # the node accounting; the host checker runs the
                # cross-tenant version of these two instead.
                check_physical_memory(sim.phys)
                check_page_conservation(sim.asp)
            if sim.bank.epochs:
                check_epoch_counters(sim.bank.epochs[-1], sim.machine.n_nodes)
        except InvariantViolation as exc:
            raise self._violation(exc) from None

        latest = sim.bank.epochs[-1] if sim.bank.epochs else None
        if latest is not None and latest.epoch != epoch:
            raise self._violation(
                InvariantViolation(
                    f"latest counters are for epoch {latest.epoch}, "
                    f"expected {epoch}"
                )
            )
        if sim.sim_time_s < self._prev_sim_time:
            raise self._violation(
                InvariantViolation(
                    f"simulated time went backwards: {sim.sim_time_s} < "
                    f"{self._prev_sim_time}"
                )
            )
        self._prev_sim_time = sim.sim_time_s

        # Footprint only shrinks through accounted reclaim: mapped plus
        # the cumulative reclaimed/released byte counter is monotonic,
        # so an unaccounted unmap still surfaces as lost pages.
        mapped = sim.asp.mapped_bytes() + getattr(
            sim.asp, "reclaimed_bytes", 0
        )
        if mapped < self._prev_mapped_bytes:
            raise self._violation(
                InvariantViolation(
                    f"mapped + reclaimed footprint shrank: {mapped} < "
                    f"{self._prev_mapped_bytes} (nothing unmaps without "
                    "reclaim accounting, so pages were lost)"
                )
            )
        self._prev_mapped_bytes = mapped

        if latest is not None:
            for name in _MONOTONIC_COUNTERS:
                cumulative = self._prev_totals.get(name, 0.0) + float(
                    getattr(latest, name)
                )
                if cumulative < self._prev_totals.get(name, 0.0):
                    raise self._violation(
                        InvariantViolation(
                            f"cumulative counter {name} decreased"
                        )
                    )
                self._prev_totals[name] = cumulative
        self._check_action_conservation()
        self._epochs_checked += 1

    def _check_action_conservation(self) -> None:
        """Decisions in == actions out, between executor and action log.

        Every decision the executor saw was either applied or skipped,
        and the per-interval summaries the engine logged (and priced)
        sum to exactly the executor's lifetime totals — i.e. no policy
        action bypassed the executor and no accounted work lacks a
        logged decision path.
        """
        executor = getattr(self.sim, "executor", None)
        if executor is None:
            return
        seen = executor.decisions_seen
        applied = executor.decisions_applied
        skipped = executor.decisions_skipped
        if seen != applied + skipped:
            raise self._violation(
                InvariantViolation(
                    f"decision conservation broken: {seen} seen != "
                    f"{applied} applied + {skipped} skipped"
                )
            )
        for name in _ACTION_FIELDS:
            logged = sum(
                getattr(summary, name) for _, summary in self.sim.action_log
            )
            total = getattr(executor.totals, name)
            if logged != total:
                raise self._violation(
                    InvariantViolation(
                        f"action conservation broken for {name}: action log "
                        f"sums to {logged}, executor totals say {total}"
                    )
                )


class HostInvariantChecker:
    """Cross-tenant invariants for a shared-allocator host.

    Runs after every host epoch, complementing the per-tenant
    :class:`InvariantChecker` (which each tenant still runs on its own
    address space): the allocator must balance globally, the live
    tenants' footprints must tile the used frames exactly (no frame
    owned by two tenants), and departed tenants must have returned
    every page.
    """

    def __init__(self, host) -> None:
        self.host = host
        self._epochs_checked = 0

    def after_epoch(self, epoch: int) -> None:
        """Validate the shared allocator against all tenant mappings."""
        host = self.host
        try:
            check_physical_memory(host.phys)
            check_host_conservation(
                host.phys, [tenant.asp for tenant in host.tenants]
            )
            for tenant in host.tenants:
                if host.status[tenant.tenant_id] in (
                    "released",
                    "oom-killed",
                ):
                    check_tenant_released(tenant.asp)
        except InvariantViolation as exc:
            raise InvariantViolation(
                exc.detail,
                machine=host.machine.name,
                epoch=epoch,
            ) from None
        self._epochs_checked += 1
