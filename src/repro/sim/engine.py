"""The epoch-based simulation engine.

One :class:`Tenant` runs one workload instance under one placement
policy against a (possibly shared) pool of physical memory.  Each epoch
represents a fixed quantum of application work; how much wall-clock
time the quantum takes depends on DRAM latency (controller queueing +
interconnect), TLB walk costs, page-fault handling and policy
maintenance — the same four components the paper's measurements
decompose into.  Runtime is the sum of epoch times, so performance
ratios between policies come out directly.

:class:`Simulation` is the single-workload entry point and the N=1
special case of the multi-tenant architecture: its :meth:`~Simulation.run`
adopts the tenant into a fresh :class:`repro.sim.host.Host` and drives
the host's epoch loop, so every single-workload run exercises the same
multiplexing path as the colocation scenarios in
:mod:`repro.scenarios`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    ClassVar,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Type,
    Union,
)

import numpy as np

from repro.units import Bytes, NodeId, Pages4K
from repro.analysis.invariants import InvariantChecker, invariants_enabled
from repro.errors import SimulationError
from repro.hardware.counters import CounterBank, EpochCounters
from repro.hardware.ibs import IbsEngine, IbsSamples
from repro.hardware.tlb import TlbEpochResult, TlbModel
from repro.hardware.topology import NumaTopology
from repro.sim.config import SimConfig
from repro.sim.decisions import (
    ChargeCompute,
    ClearCollapseBlocks,
    Collapse2M,
    Decision,
    InterleaveRegion,
    MergeSummary,
    MigratePages,
    Note,
    Outcome,
    ReclaimPages,
    ReplicatePage,
    ReplicatePageTables,
    Split1G,
    Split2M,
    ToggleThpAlloc,
    ToggleThpPromotion,
)
from repro.sim.policy import PlacementPolicy, PolicyActionSummary
from repro.sim.profile import PhaseTimer, profile_enabled
from repro.sim.results import SimulationResult
from repro.sim.trace import DecisionTrace, trace_enabled
from repro.sim.tracker import AccessTracker
from repro.vm.address_space import AddressSpace, split_backing_page
from repro.vm.frame_allocator import PhysicalMemory
from repro.vm.layout import (
    GRANULES_PER_1G,
    PAGE_2M,
    PAGE_4K,
    PageSize,
    SHIFT_1G,
    SHIFT_2M,
)
from repro.vm.thp import ThpState, khugepaged_scan
from repro.workloads.base import Workload, WorkloadInstance
from repro.workloads.streambank import get_stream_bank

#: Static-analysis registry (rule R104): roots of the simulation call
#: graph.  Every random/clock sink reachable from here must be either
#: the sanctioned ``rng_for`` site or an explicitly suppressed
#: observability read (the profiler's ``# lint: ignore[R002]`` lines).
_SIM_ENTRY_POINTS = ("Simulation.run",)


@dataclass
class PageTableState:
    """Where the page tables live, and whether they are replicated.

    Linux allocates page-table pages on the node of the faulting thread;
    with one multi-threaded process they concentrate on the node that
    faulted first, so threads elsewhere pay interconnect hops on every
    level of a TLB-miss walk (the effect Mitosis measures).  The engine
    models this only when a policy opts in by setting
    :attr:`numa_enabled`; the default state prices walks exactly as
    before, keeping every non-replication config bit-identical.
    """

    #: Node holding the (master) page tables.
    home_node: NodeId = 0
    #: Model remote page-table walks at all (policy opt-in).
    numa_enabled: bool = False
    #: Replicas exist on every node; walks are always local.
    replicated: bool = False
    #: Bytes charged for the replicas when replication happened.
    replica_bytes: Bytes = 0
    #: Radix-walk depth: levels touched per full TLB-miss walk.
    walk_levels: int = 4


class Tenant:
    """One workload + policy context over (possibly shared) memory.

    All per-workload simulation state lives here: the address space,
    THP/TLB/IBS state, the access tracker, the policy and its executor,
    the stream-bank binding, and the per-tenant epoch/time clocks.
    Standalone (``phys=None``) a tenant owns a private
    :class:`PhysicalMemory`; under a :class:`repro.sim.host.Host`
    several tenants share the host's allocator and interconnect, and
    each other's traffic (via :attr:`_background_rates`) congests the
    pricing model.
    """

    def __init__(
        self,
        machine: NumaTopology,
        workload: Union[Workload, WorkloadInstance],
        policy: PlacementPolicy,
        config: Optional[SimConfig] = None,
        phys: Optional[PhysicalMemory] = None,
        tenant_id: int = 0,
    ) -> None:
        self.machine = machine
        self.config = config or SimConfig()
        self.models = self.config.models
        if isinstance(workload, Workload):
            self.instance = workload.instantiate(
                machine, self.config.scale, self.config.seed
            )
        else:
            self.instance = workload
        if self.instance.machine is not machine:
            raise SimulationError("workload instance was built for another machine")
        self.policy = policy

        self.tenant_id = tenant_id
        #: Whether this tenant's allocator is private.  Shared-allocator
        #: tenants skip the per-tenant physical-memory conservation
        #: checks (other tenants' frames are visible there); the host
        #: runs the cross-tenant version instead.
        self.owns_phys = phys is None
        self.phys = (
            PhysicalMemory.for_topology(machine) if phys is None else phys
        )
        self.asp = AddressSpace(self.instance.n_granules, self.phys, self.instance.name)
        self.thp = ThpState()
        self.tlb_model = TlbModel(self.models.tlb, self.models.cache)
        self.ibs = IbsEngine(
            machine.n_nodes,
            rate=self.config.ibs_rate if policy.wants_ibs() else 0.0,
            cost_cycles_per_sample=self.config.ibs_cost_cycles,
        )
        self.bank = CounterBank(machine.n_nodes, machine.n_cores)
        self.tracker = (
            AccessTracker(self.instance.n_granules)
            if self.config.track_access_stats
            else None
        )
        self.n_threads = self.instance.n_threads
        self.thread_nodes = machine.core_to_node[: self.n_threads].astype(np.int64)
        self.sim_time_s = 0.0
        self.epoch = 0
        # Lifecycle state driven by the host: local epochs completed,
        # the total to run (set by start()), and the previous epoch's
        # traffic rates other tenants see as background congestion.
        self._started = False
        self._epochs_run = 0
        self._total_epochs = 0
        self._background_rates: Optional[np.ndarray] = None
        self.last_rates: Optional[np.ndarray] = None
        self.action_log: List[Tuple[float, PolicyActionSummary]] = []
        self._pending_maintenance_s = 0.0
        self._last_policy_epoch = 0
        self._next_policy_time = (
            policy.interval_s if policy.interval_s is not None else None
        )
        self.invariant_checker = (
            InvariantChecker(self) if invariants_enabled(self.config) else None
        )
        # Streams are policy-independent, so runs sharing (workload,
        # machine, seed, stream length) share one memoized bank.
        self._stream_bank = get_stream_bank(
            self.instance, self.config.seed, self.config.stream_length
        )
        self.profiler = PhaseTimer() if profile_enabled(self.config) else None
        self.page_tables = PageTableState(
            home_node=int(self.thread_nodes[0]) if self.n_threads else 0
        )
        self.executor = ActionExecutor(self)
        self.tracer = (
            DecisionTrace(
                {
                    "workload": self.instance.name,
                    "machine": machine.name,
                    "policy": policy.name,
                    "seed": self.config.seed,
                }
            )
            if trace_enabled(self.config)
            else None
        )
        # Version-keyed caches over the backing state: backing fractions
        # by (lo, hi) range, per-thread TLB epoch results by group-list
        # identity, and TLB epoch results by group-list *value* (threads
        # with symmetric working sets — most of them — share one model
        # evaluation).  All valid while ``asp.version`` is unchanged;
        # only consulted in no-fault epochs (see ``_pass1_tlb``).
        self._backing_version = -1
        self._fraction_cache: Dict[Tuple[int, int], Tuple[float, float, float]] = {}
        self._tlb_memo: Dict[int, Tuple[list, TlbEpochResult]] = {}
        self._tlb_value_memo: Dict[tuple, TlbEpochResult] = {}

    # ------------------------------------------------------------------
    # Lifecycle (driven by the host)
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Set up the policy and fix the tenant's epoch budget."""
        if self._started:
            raise SimulationError("tenant started twice")
        self.policy.setup(self)
        self._total_epochs = min(
            self.instance.total_epochs, self.config.max_epochs
        )
        self._started = True

    @property
    def done(self) -> bool:
        """Whether the tenant has run every epoch of its workload."""
        return self._started and self._epochs_run >= self._total_epochs

    def step(self) -> bool:
        """Run one local epoch; returns True while more remain."""
        if not self._started:
            raise SimulationError("tenant stepped before start()")
        if self.done:
            return False
        self.epoch = self._epochs_run
        self._run_epoch(self.epoch)
        self._epochs_run += 1
        return not self.done

    def release(self) -> Bytes:
        """Free every page back to the allocator (tenant exit/kill)."""
        return self.asp.release_all()

    def result(self) -> SimulationResult:
        """Package everything the run produced."""
        if self.tracer is not None:
            self.tracer.flush_env()
        return SimulationResult(
            workload=self.instance.name,
            machine=self.machine.name,
            policy=self.policy.name,
            runtime_s=self.sim_time_s,
            epoch_times_s=[e.duration_s for e in self.bank.epochs],
            bank=self.bank,
            hot_stats=(
                self.tracker.hot_page_stats(self.asp) if self.tracker else None
            ),
            action_log=self.action_log,
            final_page_counts=self.asp.page_counts(),
        )

    def _run_epoch(self, epoch: int) -> None:
        cfg = self.config
        cost = self.instance.cost
        n_nodes = self.machine.n_nodes
        n_threads = self.n_threads
        freq = self.machine.cpu_freq_hz
        prof = self.profiler
        if prof is not None:
            prof.epoch_start()

        fault_time = np.zeros(n_threads)
        walk_time = np.zeros(n_threads)
        ibs_time = np.zeros(n_threads)
        tlb_misses = np.zeros(n_threads)
        walk_l2 = np.zeros(n_threads)
        traffic = np.zeros((n_nodes, n_nodes))
        thread_home_counts = np.zeros((n_threads, n_nodes))

        # 1. Allocation work (first-touch premaps, growth).
        batch = self.instance.premap_epoch(
            epoch,
            self.asp,
            self.thread_nodes,
            self.thp.alloc_enabled,
            interleave=self.policy.alloc_interleave,
        )
        concurrent = batch.faulting_threads()
        for t in range(n_threads):
            fault_time[t] = self.models.page_fault.handler_time_s(
                float(batch.faults_4k[t]),
                float(batch.faults_2m[t]),
                float(batch.faults_1g[t]),
                concurrent,
            )
        if prof is not None:
            prof.lap("premap")

        # 2. Access streams: translation, traffic, TLB, IBS, tracking.
        stream_faults_4k = stream_faults_2m = 0.0
        written_replicated: set = set()
        length = cfg.stream_length
        bank = self._stream_bank

        # Pass 1a — per-thread streams.  Streams are drawn before any
        # translation (generation never reads the address space), so
        # the whole epoch translates in one call below.  The draws
        # happen (at most once per shared bank) inside the bank; the
        # IBS generators are restored from the captured
        # post-generation states so their later draws are unchanged.
        streams, stream_writes, stream_sizes = bank.epoch_arrays(epoch)
        rngs = bank.ibs_rngs(epoch) if self.ibs.rate > 0 else []
        if prof is not None:
            prof.lap("stream_bank")
        # The bank's arrays are shared and read-only; the engine only
        # ever writes into its own per-epoch translation scratch.
        stream_homes = np.zeros((n_threads, length), dtype=np.int64)

        # Pass 1b — the common epoch has no demand faults: one
        # vectorized translation over every access decides which case we
        # are in.  An unmapped granule (home < 0) means some thread
        # would fault and mutate the address space mid-pass, so the
        # epoch falls back to the sequential per-thread path where
        # thread ordering is part of the deterministic contract.
        # Region workloads always fill exactly ``length`` accesses per
        # thread, so the boolean ``valid`` mask (and the copying fancy
        # selections it implies) is only needed for ragged streams
        # (traces); full streams flatten as views.
        full = bool((stream_sizes == length).all())
        if full:
            valid = None
            flat_granules = streams.reshape(-1)
        else:
            valid = np.arange(length)[None, :] < stream_sizes[:, None]
            flat_granules = streams[valid]
        flat_homes = self.asp.home_nodes(flat_granules)
        if flat_homes.size and int(flat_homes.min()) < 0:
            stream_faults_4k, stream_faults_2m = self._pass1_faulting(
                epoch,
                streams,
                stream_writes,
                stream_homes,
                stream_sizes,
                fault_time,
                walk_time,
                tlb_misses,
                walk_l2,
                written_replicated,
            )
            if prof is not None:
                prof.lap("streams")
        else:
            rep = self.asp.replication_mask(flat_granules)
            if np.any(rep):
                # Reads of replicated pages are serviced locally.
                local = np.repeat(self.thread_nodes, stream_sizes)
                flat_homes = np.where(rep, local, flat_homes)
            if full:
                stream_homes[:] = flat_homes.reshape(n_threads, length)
                writes_flat = stream_writes.reshape(-1)
            else:
                stream_homes[valid] = flat_homes
                writes_flat = stream_writes[valid]
            if np.any(writes_flat):
                written = flat_granules[writes_flat]
                rep_mask = self.asp.replication_mask(written)
                if np.any(rep_mask):
                    ids, _ = self.asp.backing_info(written[rep_mask])
                    written_replicated.update(int(i) for i in np.unique(ids))
            if prof is not None:
                prof.lap("streams")
            self._pass1_tlb(epoch, stream_sizes, walk_time, tlb_misses, walk_l2)
            if prof is not None:
                prof.lap("tlb")

        # Pass 2 — vectorized across threads: one 2-D bincount over
        # (thread, home node) replaces the per-thread bincounts, and
        # traffic accumulates with a single unbuffered np.add.at (which
        # applies additions in thread order, bit-identical to a loop).
        keyed = (
            np.arange(n_threads, dtype=np.int64)[:, None] * n_nodes + stream_homes
        )
        flat = keyed.reshape(-1) if full else keyed[valid]
        pair_counts = np.bincount(flat, minlength=n_threads * n_nodes).reshape(
            n_threads, n_nodes
        )
        scale = np.zeros(n_threads)
        active = stream_sizes > 0
        scale[active] = cost.dram_accesses / stream_sizes[active]
        thread_home_counts[:] = pair_counts.astype(np.float64) * scale[:, None]
        np.add.at(traffic, self.thread_nodes, thread_home_counts)

        active_idx = np.flatnonzero(active)
        if prof is not None:
            prof.lap("streams")
        if self.tracker is not None:
            # Weight by the thread's actual stream size (matching the
            # traffic scaling above), not the nominal stream_length:
            # short streams represent the same DRAM access budget
            # spread over fewer touches.  The bank pre-merged every
            # thread's unique columns into one COO with the per-thread
            # scale baked in (identical to this epoch's ``scale`` — the
            # bank fingerprint pins ``dram_accesses``), so the whole
            # epoch lands in two vectorized calls.
            ids, _, _, scaled = bank.epoch_tracker(epoch)
            self.tracker.add_epoch(ids, scaled)
            self.tracker.merge_epoch_sharing(bank.sharing_packed(epoch))
        if prof is not None:
            prof.lap("tracker")

        n_samples = self.ibs.record_epoch_batch(
            active_idx,
            self.thread_nodes,
            streams,
            stream_homes,
            stream_writes,
            stream_sizes,
            cost.dram_accesses,
            rngs,
        )
        ibs_time = n_samples * self.ibs.cost_cycles_per_sample / freq
        if prof is not None:
            prof.lap("ibs")

        # 3. Price the traffic: controller queueing + interconnect hops.
        # Under a multi-tenant host, the other tenants' previous-epoch
        # traffic congests the same controllers and links; the N=1 path
        # (bg is None) performs exactly the original arithmetic so
        # single-workload runs stay bit-identical.
        rates = traffic / cfg.epoch_s
        bg = self._background_rates
        if bg is not None:
            shared = rates + bg
            controller_latency = self.models.controller.latency_cycles(
                shared.sum(axis=0)
            )
            hop_latency = self.models.interconnect.hop_latency_matrix(
                self.machine, shared
            )
        else:
            controller_latency = self.models.controller.latency_cycles(rates.sum(axis=0))
            hop_latency = self.models.interconnect.hop_latency_matrix(self.machine, rates)
        self.last_rates = rates
        latency = controller_latency[None, :] + hop_latency  # (src, dst) cycles
        dram_time = (
            thread_home_counts * latency[self.thread_nodes, :]
        ).sum(axis=1) / freq / cost.mlp

        thread_time = cost.cpu_seconds + dram_time + walk_time + fault_time + ibs_time
        if prof is not None:
            prof.lap("pricing")

        # 4. Maintenance: khugepaged plus policy actions from last epoch.
        maintenance_s = self._pending_maintenance_s
        self._pending_maintenance_s = 0.0
        replicas_collapsed = 0
        for page_id in sorted(written_replicated):
            if self.asp.unreplicate_backing(page_id) > 0:
                replicas_collapsed += 1
        if replicas_collapsed:
            maintenance_s += self.models.migration.collapse_time_s(
                replicas_collapsed, n_threads
            )
        collapsed = 0
        if self.thp.promotion_enabled:
            self.thp.scan_batch = cfg.khugepaged_batch
            collapsed = khugepaged_scan(self.thp, self.asp)
            maintenance_s += self.models.migration.collapse_time_s(
                collapsed, n_threads
            )

        epoch_time = float(thread_time.max()) + maintenance_s / n_nodes
        self.sim_time_s += epoch_time

        fault_per_core = np.zeros(self.machine.n_cores)
        fault_per_core[:n_threads] = fault_time
        self.bank.add(
            EpochCounters(
                epoch=epoch,
                duration_s=epoch_time,
                traffic=traffic,
                instructions=cost.instructions * n_threads,
                mem_accesses=cost.mem_accesses * n_threads,
                l2_data_misses=cost.dram_accesses * n_threads,
                walk_l2_misses=float(walk_l2.sum()),
                tlb_misses=float(tlb_misses.sum()),
                page_faults_4k=float(batch.faults_4k.sum()) + stream_faults_4k,
                page_faults_2m=float(batch.faults_2m.sum()) + stream_faults_2m,
                page_faults_1g=float(batch.faults_1g.sum()),
                fault_time_per_core_s=fault_per_core,
                daemon_time_s=maintenance_s,
                time_cpu_s=cost.cpu_seconds * n_threads,
                time_dram_s=float(dram_time.sum()),
                time_walk_s=float(walk_time.sum()),
                time_fault_s=float(fault_time.sum()),
                time_ibs_s=float(ibs_time.sum()),
                pages_collapsed_2m=collapsed,
                replicas_collapsed=replicas_collapsed,
                ibs_samples=self.ibs.pending_samples,
            )
        )
        if prof is not None:
            prof.lap("maintenance")

        # 5. Policy daemon at its interval (actions cost time next epoch).
        if (
            self._next_policy_time is not None
            and self.sim_time_s >= self._next_policy_time
        ):
            samples = self.ibs.drain()
            window = self.bank.window(self._last_policy_epoch)
            summary = self.executor.run_interval(self.policy, samples, window)
            self._last_policy_epoch = epoch + 1
            migration_model = self.models.migration
            action_cost = (
                migration_model.migration_time_s(
                    summary.bytes_migrated + summary.bytes_replicated,
                    summary.migrated_4k
                    + summary.migrated_2m
                    + summary.replicated_pages,
                )
                + migration_model.split_time_s(
                    summary.splits_2m + summary.splits_1g * (GRANULES_PER_1G // 512),
                    self.n_threads,
                )
                + migration_model.collapse_time_s(summary.collapses_2m, self.n_threads)
                + summary.compute_s
            )
            # Reclaim is priced like migration (unmap + frame return);
            # guarded so configs that never reclaim add literally
            # nothing to the float sum.
            if summary.pages_reclaimed:
                action_cost += migration_model.migration_time_s(
                    summary.bytes_reclaimed, summary.pages_reclaimed
                )
            self._pending_maintenance_s += action_cost
            self.action_log.append((self.sim_time_s, summary))
            interval = self.policy.interval_s or 1.0
            while self._next_policy_time <= self.sim_time_s:
                self._next_policy_time += interval
        if prof is not None:
            prof.lap("policy")

        if self.invariant_checker is not None:
            self.invariant_checker.after_epoch(epoch)
        if prof is not None:
            prof.epoch_end()

    # ------------------------------------------------------------------
    # Pass-1 variants
    # ------------------------------------------------------------------
    def _pass1_faulting(
        self,
        epoch: int,
        streams: np.ndarray,
        stream_writes: np.ndarray,
        stream_homes: np.ndarray,
        stream_sizes: np.ndarray,
        fault_time: np.ndarray,
        walk_time: np.ndarray,
        tlb_misses: np.ndarray,
        walk_l2: np.ndarray,
        written_replicated: set,
    ) -> Tuple[float, float]:
        """Sequential per-thread pass 1 for epochs with demand faults.

        Demand faulting mutates the address space and TLB classification
        must see the backing state as of its thread's turn, so thread
        ordering is part of the deterministic contract.  The version-
        keyed caches stay out of this path entirely: faulting bumps the
        address-space version, so they re-key on the next quiet epoch,
        and the per-epoch ``fraction_cache`` below keeps the original
        sharing semantics (entries computed before a later thread's
        fault are deliberately reused after it).
        """
        cost = self.instance.cost
        freq = self.machine.cpu_freq_hz
        faults_4k = faults_2m = 0.0
        fraction_cache: Dict[Tuple[int, int], Tuple[float, float, float]] = {}
        for t in range(self.n_threads):
            n = int(stream_sizes[t])
            if n == 0:
                continue
            granules = streams[t, :n]
            writes = stream_writes[t, :n]
            homes = self.asp.home_nodes_for(granules, int(self.thread_nodes[t]))
            if homes.size and int(homes.min()) < 0:
                stats = self.asp.fault_in(
                    granules[homes < 0],
                    int(self.thread_nodes[t]),
                    self.thp.alloc_enabled,
                )
                fault_time[t] += self.models.page_fault.handler_time_s(
                    stats.faults_4k, stats.faults_2m, stats.faults_1g, 1
                )
                faults_4k += stats.faults_4k
                faults_2m += stats.faults_2m
                homes = self.asp.home_nodes_for(granules, int(self.thread_nodes[t]))
            stream_homes[t, :n] = homes
            # Writes to replicated pages collapse the replicas.
            if writes.size and np.any(writes):
                written = granules[writes]
                rep_mask = self.asp.replication_mask(written)
                if np.any(rep_mask):
                    ids, _ = self.asp.backing_info(written[rep_mask])
                    written_replicated.update(int(i) for i in np.unique(ids))
            tlb_result = self.tlb_model.epoch_result_grouped(
                self._classify_tlb_groups(
                    self.instance.tlb_groups(t, epoch), fraction_cache
                ),
                cost.mem_accesses,
            )
            walk_time[t] = tlb_result.walk_cycles / freq
            penalty = self._remote_walk_penalty_s(t, tlb_result.misses)
            if penalty:
                walk_time[t] += penalty
            tlb_misses[t] = tlb_result.misses
            walk_l2[t] = tlb_result.walk_l2_misses
        return faults_4k, faults_2m

    def _pass1_tlb(
        self,
        epoch: int,
        stream_sizes: np.ndarray,
        walk_time: np.ndarray,
        tlb_misses: np.ndarray,
        walk_l2: np.ndarray,
    ) -> None:
        """TLB-classify all active threads against quiescent backing.

        Only called in no-fault epochs, where the backing state is
        frozen for the whole pass: classification order no longer
        matters, so backing fractions and whole per-thread TLB results
        are memoized across epochs, keyed on the address-space version
        and each thread's (value-compared) group list.
        """
        cost = self.instance.cost
        freq = self.machine.cpu_freq_hz
        version = self.asp.version
        if version != self._backing_version:
            self._fraction_cache.clear()
            self._tlb_memo.clear()
            self._tlb_value_memo.clear()
            self._backing_version = version
        for t in range(self.n_threads):
            if stream_sizes[t] == 0:
                continue
            groups = self.instance.tlb_groups(t, epoch)
            memo = self._tlb_memo.get(t)
            # The instance returns the same list object while a
            # thread's groups are unchanged, so identity is the cheap
            # (and sufficient) per-thread staleness test.
            if memo is not None and memo[0] is groups:
                tlb_result = memo[1]
            else:
                key = tuple(groups)
                tlb_result = self._tlb_value_memo.get(key)
                if tlb_result is None:
                    tlb_result = self.tlb_model.epoch_result_grouped(
                        self._classify_tlb_groups(groups, self._fraction_cache),
                        cost.mem_accesses,
                    )
                    self._tlb_value_memo[key] = tlb_result
                self._tlb_memo[t] = (groups, tlb_result)
            walk_time[t] = tlb_result.walk_cycles / freq
            penalty = self._remote_walk_penalty_s(t, tlb_result.misses)
            if penalty:
                walk_time[t] += penalty
            tlb_misses[t] = tlb_result.misses
            walk_l2[t] = tlb_result.walk_l2_misses

    def _remote_walk_penalty_s(self, t: int, misses: float) -> float:
        """Extra walk seconds when thread ``t`` walks remote page tables.

        Every TLB-miss walk touches :attr:`PageTableState.walk_levels`
        page-table entries; when the tables live on another node each
        touch pays that node pair's interconnect hops (the remote
        page-table cost Mitosis replicates tables to remove).  Zero
        unless a policy enabled page-table NUMA modelling, and zero
        again once the tables are replicated.
        """
        pt = self.page_tables
        if not pt.numa_enabled or pt.replicated:
            return 0.0
        hops = float(
            self.machine.hop_matrix[int(self.thread_nodes[t]), pt.home_node]
        )
        if hops <= 0.0:
            return 0.0
        cycles = (
            misses
            * hops
            * self.models.interconnect.hop_latency_cycles
            * pt.walk_levels
        )
        return cycles / self.machine.cpu_freq_hz

    # ------------------------------------------------------------------
    # TLB group classification against current backing state
    # ------------------------------------------------------------------
    def _backing_fractions(
        self, lo: Pages4K, hi: Pages4K
    ) -> Tuple[float, float, float]:
        """Fractions of [lo, hi) backed by 4KB / 2MB / 1GB pages."""
        asp = self.asp
        c_lo = lo >> SHIFT_2M
        c_hi = ((hi - 1) >> SHIFT_2M) + 1
        mapped4 = float(asp.mapped_count_2m[c_lo:c_hi].sum())
        huge_idx = np.flatnonzero(asp.huge[c_lo:c_hi]) + c_lo
        if huge_idx.size:
            overlap = np.minimum(hi, (huge_idx + 1) << SHIFT_2M) - np.maximum(
                lo, huge_idx << SHIFT_2M
            )
            huge_g = float(overlap.sum())
        else:
            huge_g = 0.0
        g_lo = lo >> SHIFT_1G
        g_hi = ((hi - 1) >> SHIFT_1G) + 1
        giga_idx = np.flatnonzero(asp.giga[g_lo:g_hi]) + g_lo
        if giga_idx.size:
            overlap = np.minimum(hi, (giga_idx + 1) << SHIFT_1G) - np.maximum(
                lo, giga_idx << SHIFT_1G
            )
            giga_g = float(overlap.sum())
        else:
            giga_g = 0.0
        total = mapped4 + huge_g + giga_g
        if total <= 0:
            return (1.0, 0.0, 0.0)
        return (mapped4 / total, huge_g / total, giga_g / total)

    def _classify_tlb_groups(
        self,
        groups,
        cache: Dict[Tuple[int, int], Tuple[float, float, float]],
    ) -> Dict[PageSize, Tuple[np.ndarray, np.ndarray]]:
        per_class: Dict[PageSize, Tuple[List[float], List[float], List[float]]] = {
            PageSize.SIZE_4K: ([], [], []),
            PageSize.SIZE_2M: ([], [], []),
            PageSize.SIZE_1G: ([], [], []),
        }
        for group in groups:
            if group.weight <= 0 or group.hi <= group.lo:
                continue
            key = (group.lo, group.hi)
            fractions = cache.get(key)
            if fractions is None:
                fractions = self._backing_fractions(group.lo, group.hi)
                cache[key] = fractions
            for size, frac, distinct in (
                (PageSize.SIZE_4K, fractions[0], group.distinct_4k),
                (PageSize.SIZE_2M, fractions[1], group.distinct_2m),
                (PageSize.SIZE_1G, fractions[2], group.distinct_1g),
            ):
                if frac <= 0:
                    continue
                counts, weights, runs = per_class[size]
                counts.append(max(1.0, distinct * frac))
                weights.append(group.weight * frac)
                # Sequential sweeps keep hitting the same large page for
                # consecutive 4KB-page runs, so the effective run length
                # at a bigger page size grows by the ratio of distinct
                # translations (512 for a dense sweep).  Random-order
                # groups get no such amplification.
                if group.sequential:
                    runs.append(
                        group.run_length * (group.distinct_4k / max(distinct, 1.0))
                    )
                else:
                    runs.append(group.run_length)
        return {
            size: (np.asarray(counts), np.asarray(weights), np.asarray(runs))
            for size, (counts, weights, runs) in per_class.items()
            if counts
        }


class Simulation(Tenant):
    """Drives one (machine, workload, policy) combination to completion.

    The single-workload entry point is the N=1 special case of the
    multi-tenant architecture: :meth:`run` adopts this tenant into a
    fresh :class:`repro.sim.host.Host` sharing its allocator and drives
    the host's epoch loop, so the goldens pinned against this path
    certify the refactored host multiplexing too.
    """

    def run(self) -> SimulationResult:
        """Run the workload to completion and return the results."""
        from repro.sim.host import Host  # deferred: host imports this module

        host = Host(self.machine, config=self.config, phys=self.phys)
        host.admit(self)
        host.run_to_completion()
        return self.result()


class ActionExecutor:
    """The single mutation point of the policy layer.

    Policies yield typed :mod:`repro.sim.decisions`; the executor
    applies each one against the simulation state the moment it is
    yielded, accounts the work in a :class:`PolicyActionSummary` (priced
    by the engine next epoch), and ``send()``s the resulting
    :class:`Outcome` back into the decider generator — so a decider
    observes exactly the state its earlier decisions produced, as the
    old self-mutating policies did.

    With a multi-decider stack, conflicting decisions are resolved
    deterministically: the first decider whose decision on a target
    (page / THP toggle / page tables) is *applied* owns that target for
    the interval, and later deciders' decisions on it are skipped (a
    :class:`~repro.sim.decisions.MigratePages` batch claims, and is
    denied, page by page).  A single decider never consults claims, or
    even builds a decision's targets, so its behaviour is untouched by
    composition support.
    """

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        self.decisions_seen = 0
        self.decisions_applied = 0
        self.decisions_skipped = 0
        #: Lifetime action totals; the invariant checker reconciles this
        #: against the sum of the engine's per-interval action log.
        self.totals = PolicyActionSummary()

    # ------------------------------------------------------------------
    # Interval driving
    # ------------------------------------------------------------------
    def run_interval(
        self, policy: PlacementPolicy, samples: IbsSamples, window: CounterBank
    ) -> PolicyActionSummary:
        """Run every decider of ``policy`` once; return the summary."""
        summary = PolicyActionSummary()
        deciders = policy.deciders()
        claimed: Optional[Dict[Tuple[str, Any], int]] = (
            {} if len(deciders) > 1 else None
        )
        for index, decider in enumerate(deciders):
            self.drive(
                decider.decide(self.sim, samples, window),
                summary,
                claimed=claimed,
                index=index,
                source=decider.name,
            )
        self.totals.merge(summary)
        return summary

    def drive(
        self,
        gen: Iterator[Decision],
        summary: PolicyActionSummary,
        claimed: Optional[Dict[Tuple[str, Any], int]] = None,
        index: int = 0,
        source: str = "decider",
    ) -> Any:
        """Drive one decider generator to completion.

        Returns the generator's return value (component decision
        dataclasses use it to report what they observed).
        """
        try:
            decision = next(gen)
        except StopIteration as stop:
            return stop.value
        while True:
            outcome = self._apply(decision, summary, claimed, index, source)
            try:
                decision = gen.send(outcome)
            except StopIteration as stop:
                return stop.value

    def _apply(
        self,
        decision: Decision,
        summary: PolicyActionSummary,
        claimed: Optional[Dict[Tuple[str, Any], int]],
        index: int,
        source: str,
    ) -> Outcome:
        self.decisions_seen += 1
        if claimed is None:
            outcome = self._execute(decision, summary)
        else:
            outcome = self._execute_claimed(decision, summary, claimed, index)
        if outcome.applied:
            self.decisions_applied += 1
        else:
            self.decisions_skipped += 1
        tracer = getattr(self.sim, "tracer", None)
        if tracer is not None:
            tracer.record(
                self.sim.sim_time_s, self.sim.epoch, source, decision, outcome
            )
        return outcome

    def _execute_claimed(
        self,
        decision: Decision,
        summary: PolicyActionSummary,
        claimed: Dict[Tuple[str, Any], int],
        index: int,
    ) -> Outcome:
        """Execute one decision of stack member ``index``.

        The first member to act on a target owns it for the interval.
        A decision touching a target another member owns is skipped; a
        batch instead passes over just those entries, and claims only
        the pages it actually moved.
        """
        targets = decision.targets()
        foreign = [claimed.get(tgt, index) != index for tgt in targets]
        if isinstance(decision, MigratePages):
            if any(foreign):
                decision = replace(decision, skip=np.array(foreign))
            outcome = self._execute(decision, summary)
            for tgt, moved in zip(targets, outcome.entry_bytes.tolist()):
                if moved:
                    claimed.setdefault(tgt, index)
            if foreign and all(foreign):
                outcome = replace(outcome, reason="conflict")
            return outcome
        if any(foreign):
            return Outcome(applied=False, reason="conflict")
        outcome = self._execute(decision, summary)
        if outcome.applied:
            for tgt in targets:
                claimed.setdefault(tgt, index)
        return outcome

    # ------------------------------------------------------------------
    # Decision dispatch
    # ------------------------------------------------------------------
    # One ``_apply_*`` method per concrete decision class, wired through
    # the HANDLERS table below.  The decision-flow analyzer (R109/R112)
    # reads this structure: a Decision subclass missing from HANDLERS —
    # or an ``_apply_*`` method missing from it — is a lint error, and
    # each handler's write effects must match the counters the decision
    # class declares.

    def _apply_charge_compute(
        self, decision: ChargeCompute, summary: PolicyActionSummary
    ) -> Outcome:
        summary.compute_s += decision.seconds
        return Outcome(applied=True)

    def _apply_note(
        self, decision: Note, summary: PolicyActionSummary
    ) -> Outcome:
        summary.add_note(decision.text)
        return Outcome(applied=True)

    def _apply_migrate_pages(
        self, decision: MigratePages, summary: PolicyActionSummary
    ) -> Outcome:
        entry_bytes, reached = self.sim.asp.migrate_backings(
            decision.page_ids,
            decision.target_nodes,
            decision.budget_bytes,
            skip=decision.skip,
        )
        moved = int(np.count_nonzero(entry_bytes))
        total = int(entry_bytes.sum())
        summary.bytes_migrated += total
        summary.migrated_4k += int(np.count_nonzero(entry_bytes == PAGE_4K))
        summary.migrated_2m += int(np.count_nonzero(entry_bytes == PAGE_2M))
        return Outcome(
            applied=moved > 0,
            bytes_moved=total,
            count=moved,
            reason="" if moved else "not moved",
            entry_bytes=entry_bytes,
            reached=reached,
        )

    def _apply_interleave_region(
        self, decision: InterleaveRegion, summary: PolicyActionSummary
    ) -> Outcome:
        moved = self.sim.asp.migrate_granules(
            decision.granules, decision.target_nodes
        )
        summary.bytes_migrated += moved
        summary.migrated_4k += moved // PAGE_4K
        return Outcome(
            applied=moved > 0,
            bytes_moved=moved,
            count=moved // PAGE_4K,
            reason="" if moved else "nothing moved",
        )

    def _apply_split_2m(
        self, decision: Split2M, summary: PolicyActionSummary
    ) -> Outcome:
        n = split_backing_page(
            self.sim.asp, decision.page_id, decision.block_collapse
        )
        summary.splits_2m += n
        return Outcome(
            applied=n > 0, count=n, reason="" if n else "not a large page"
        )

    def _apply_split_1g(
        self, decision: Split1G, summary: PolicyActionSummary
    ) -> Outcome:
        n = split_backing_page(
            self.sim.asp, decision.page_id, decision.block_collapse
        )
        if n:
            summary.splits_1g += 1
        return Outcome(
            applied=n > 0, count=n, reason="" if n else "not a large page"
        )

    def _apply_collapse_2m(
        self, decision: Collapse2M, summary: PolicyActionSummary
    ) -> Outcome:
        ok = self.sim.asp.collapse_chunk(decision.chunk, decision.node)
        if ok:
            summary.collapses_2m += 1
        return Outcome(
            applied=ok,
            count=1 if ok else 0,
            reason="" if ok else "not collapsible",
        )

    def _apply_toggle_thp_alloc(
        self, decision: ToggleThpAlloc, summary: PolicyActionSummary
    ) -> Outcome:
        if decision.enabled:
            self.sim.thp.enable_alloc()
        else:
            self.sim.thp.disable_alloc()
        return Outcome(applied=True)

    def _apply_toggle_thp_promotion(
        self, decision: ToggleThpPromotion, summary: PolicyActionSummary
    ) -> Outcome:
        if decision.enabled:
            self.sim.thp.enable_promotion()
        else:
            self.sim.thp.disable_promotion()
        return Outcome(applied=True)

    def _apply_clear_collapse_blocks(
        self, decision: ClearCollapseBlocks, summary: PolicyActionSummary
    ) -> Outcome:
        self.sim.asp.clear_collapse_blocks()
        return Outcome(applied=True)

    def _apply_replicate_page(
        self, decision: ReplicatePage, summary: PolicyActionSummary
    ) -> Outcome:
        copied = self.sim.asp.replicate_backing(decision.page_id)
        if copied == 0:
            return Outcome(applied=False, reason="not replicated")
        summary.bytes_replicated += copied
        summary.replicated_pages += 1
        return Outcome(applied=True, bytes_moved=copied, count=1)

    def _apply_replicate_page_tables(
        self, decision: ReplicatePageTables, summary: PolicyActionSummary
    ) -> Outcome:
        pt = self.sim.page_tables
        if pt.replicated:
            return Outcome(applied=False, reason="already replicated")
        nbytes = self.sim.asp.page_table_bytes() * (self.sim.machine.n_nodes - 1)
        pt.replicated = True
        pt.replica_bytes = nbytes
        summary.bytes_replicated += nbytes
        summary.replicated_pages += nbytes // PAGE_4K
        return Outcome(
            applied=True, bytes_moved=nbytes, count=nbytes // PAGE_4K
        )

    def _apply_reclaim_pages(
        self, decision: ReclaimPages, summary: PolicyActionSummary
    ) -> Outcome:
        freed = self.sim.asp.reclaim_granules(decision.granules)
        summary.bytes_reclaimed += freed
        summary.pages_reclaimed += freed // PAGE_4K
        return Outcome(
            applied=freed > 0,
            bytes_moved=freed,
            count=freed // PAGE_4K,
            reason="" if freed else "nothing reclaimed",
        )

    def _apply_merge_summary(
        self, decision: MergeSummary, summary: PolicyActionSummary
    ) -> Outcome:
        summary.merge(decision.summary)
        return Outcome(applied=True)

    #: Exact-type dispatch table (the decision hierarchy is flat, so
    #: exact-type lookup and the old isinstance chain are equivalent).
    #: R109 checks this table is exhaustive over the Decision subclasses
    #: and free of dead handlers.
    HANDLERS: ClassVar[
        Dict[Type[Decision], Callable[..., Outcome]]
    ] = {
        ChargeCompute: _apply_charge_compute,
        Note: _apply_note,
        MigratePages: _apply_migrate_pages,
        InterleaveRegion: _apply_interleave_region,
        Split2M: _apply_split_2m,
        Split1G: _apply_split_1g,
        Collapse2M: _apply_collapse_2m,
        ToggleThpAlloc: _apply_toggle_thp_alloc,
        ToggleThpPromotion: _apply_toggle_thp_promotion,
        ClearCollapseBlocks: _apply_clear_collapse_blocks,
        ReplicatePage: _apply_replicate_page,
        ReplicatePageTables: _apply_replicate_page_tables,
        ReclaimPages: _apply_reclaim_pages,
        MergeSummary: _apply_merge_summary,
    }

    #: Conflict domains the first-member-wins claim logic arbitrates.
    #: R113 checks this equals the set of non-"none" domains declared by
    #: the decision classes in HANDLERS.
    CONFLICT_DOMAINS: ClassVar[Tuple[str, ...]] = ("page", "thp", "pt")

    def _execute(
        self, decision: Decision, summary: PolicyActionSummary
    ) -> Outcome:
        handler = self.HANDLERS.get(type(decision))
        if handler is None:
            raise SimulationError(
                f"unknown decision type {type(decision).__name__}"
            )
        # Functions stored in a class-level dict are not bound on
        # attribute access; pass self explicitly.
        return handler(self, decision, summary)


def apply_decisions(
    sim: Any, gen: Iterator[Decision], source: str = "decider"
) -> Tuple[PolicyActionSummary, Any]:
    """Drive one decider generator against ``sim`` with a fresh executor.

    Test/tooling helper: ``sim`` may be a full :class:`Simulation` or any
    object exposing the attributes the executed decisions touch
    (``asp``, ``thp``, ``page_tables``, ``machine.n_nodes``).  Returns
    ``(summary, generator_return_value)``.  A fresh executor is used on
    purpose — drives outside the engine's interval loop must not skew
    the engine executor's conservation totals.
    """
    executor = ActionExecutor(sim)
    summary = PolicyActionSummary()
    value = executor.drive(gen, summary, source=source)
    return summary, value
