"""Workload abstractions: cost profiles, TLB geometry, instances.

A :class:`Workload` is a named factory; instantiating it for a machine
produces a :class:`WorkloadInstance` that the simulation engine drives:

* :meth:`WorkloadInstance.premap_epoch` materialises first-touch
  allocation (the allocation phase, and growth for streaming regions),
  returning per-thread page-fault counts;
* :meth:`WorkloadInstance.epoch_stream_into` draws each thread's
  sampled DRAM-access stream for an epoch into the stream bank's rows;
* :meth:`WorkloadInstance.tlb_groups` describes each thread's working
  set analytically (grouped popularity + extent geometry) so the TLB
  model can be evaluated against the *current backing state* without
  materialising billions of accesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware.topology import NumaTopology
from repro.vm.address_space import AddressSpace
from repro.vm.layout import GRANULES_PER_2M


@dataclass(frozen=True)
class CostProfile:
    """Per-thread, per-epoch execution-cost constants at reference speed.

    Attributes
    ----------
    cpu_seconds:
        Base compute time per epoch (work off the memory system).
    mem_accesses:
        Total memory references per epoch (drives TLB pressure).
    dram_accesses:
        References that reach DRAM per epoch (drives traffic and
        latency stalls); also the count of L2 data misses.
    instructions:
        Instructions per epoch (reporting only).
    mlp:
        Memory-level parallelism: how many DRAM accesses overlap, i.e.
        the divisor turning latency x accesses into stall time.
    """

    cpu_seconds: float
    mem_accesses: float
    dram_accesses: float
    instructions: float = 0.0
    mlp: float = 4.0

    def __post_init__(self) -> None:
        if self.cpu_seconds < 0 or self.mem_accesses < 0 or self.dram_accesses < 0:
            raise ConfigurationError("cost profile values must be non-negative")
        if self.dram_accesses > self.mem_accesses:
            raise ConfigurationError("DRAM accesses cannot exceed memory accesses")
        if self.mlp <= 0:
            raise ConfigurationError("mlp must be positive")


@dataclass(frozen=True)
class TlbGroup:
    """One group of equally popular pages in a thread's working set.

    ``distinct_4k`` / ``distinct_2m`` / ``distinct_1g`` give the number
    of distinct translations the group would need if its extent were
    entirely backed by that page size; the engine interpolates using
    the extent's actual backing composition.

    ``run_length`` is the group's spatial locality: the average number
    of consecutive accesses that land in the same 4KB page.  Sequential
    numeric sweeps have long runs (hundreds — one TLB fill serves the
    whole page) while pointer-chasing workloads have runs near 1 (every
    access needs a fresh translation); this is the knob that separates
    TLB-bound applications (SSCA, SPECjbb) from dense HPC kernels.
    """

    lo: int
    hi: int
    weight: float
    distinct_4k: float
    distinct_2m: float
    distinct_1g: float
    run_length: float = 1.0
    #: Whether page visits proceed in address order (sequential sweep).
    #: Sequential groups keep visiting the *same* large page for many
    #: consecutive 4KB-page runs, multiplying the effective run length
    #: at larger page sizes; random-order groups do not.
    sequential: bool = False

    def __post_init__(self) -> None:
        if self.lo < 0 or self.hi < self.lo:
            raise ConfigurationError("invalid TLB group extent")
        if self.weight < 0:
            raise ConfigurationError("TLB group weight must be non-negative")
        if min(self.distinct_4k, self.distinct_2m, self.distinct_1g) < 0:
            raise ConfigurationError("distinct page counts must be non-negative")
        if self.run_length < 1.0:
            raise ConfigurationError("run_length must be >= 1")


@dataclass
class FaultBatch:
    """Per-thread page-fault counts from one premap/growth operation."""

    faults_4k: np.ndarray
    faults_2m: np.ndarray
    faults_1g: np.ndarray

    @classmethod
    def zeros(cls, n_threads: int) -> "FaultBatch":
        """A batch with no faults for ``n_threads`` threads."""
        return cls(
            faults_4k=np.zeros(n_threads, dtype=np.float64),
            faults_2m=np.zeros(n_threads, dtype=np.float64),
            faults_1g=np.zeros(n_threads, dtype=np.float64),
        )

    def merge(self, other: "FaultBatch") -> None:
        """Accumulate another batch's counts."""
        self.faults_4k += other.faults_4k
        self.faults_2m += other.faults_2m
        self.faults_1g += other.faults_1g

    @property
    def total(self) -> float:
        """Total faults of any size across threads."""
        return float(
            self.faults_4k.sum() + self.faults_2m.sum() + self.faults_1g.sum()
        )

    def faulting_threads(self) -> int:
        """Number of threads that incurred at least one fault."""
        any_fault = (self.faults_4k + self.faults_2m + self.faults_1g) > 0
        return int(np.count_nonzero(any_fault))


class WorkloadInstance:
    """A workload bound to a machine: regions laid out, costs fixed."""

    def __init__(
        self,
        name: str,
        machine: NumaTopology,
        regions: Sequence["Region"],
        cost: CostProfile,
        total_epochs: int,
        seed: int = 0,
        n_threads: Optional[int] = None,
        backing_1g: bool = False,
    ) -> None:
        from repro.workloads.regions import Region  # cycle guard

        if total_epochs <= 0:
            raise ConfigurationError("total_epochs must be positive")
        if not regions:
            raise ConfigurationError("a workload needs at least one region")
        self.name = name
        self.machine = machine
        self.cost = cost
        self.total_epochs = int(total_epochs)
        self.seed = seed
        self.n_threads = n_threads if n_threads is not None else machine.n_cores
        if not 0 < self.n_threads <= machine.n_cores:
            raise ConfigurationError(
                f"n_threads {self.n_threads} must be in 1..{machine.n_cores}"
            )
        self.backing_1g = backing_1g
        self.regions: List[Region] = list(regions)

        align = (1 << 18) if backing_1g else GRANULES_PER_2M
        cursor = 0
        for region in self.regions:
            if not isinstance(region, Region):
                raise ConfigurationError(f"{region!r} is not a Region")
            region.bind(self, cursor, align)
            cursor = region.hi
            # Keep regions in separate chunks so page-level sharing only
            # arises from the access pattern, never from packing.
            cursor = -(-cursor // align) * align
        self.n_granules = max(cursor, align)

        total_share = sum(r.access_share for r in self.regions)
        if total_share <= 0:
            raise ConfigurationError("total region access share must be positive")
        self._norm_shares = [r.access_share / total_share for r in self.regions]
        # Shares are immutable after bind; keep the array form (and the
        # per-length floor/deficit split derived from it) precomputed so
        # the per-(thread, epoch) hot path never rebuilds them.
        self._shares_array = np.asarray(self._norm_shares, dtype=np.float64)
        self._counts_base: dict = {}
        # CDF form of the shares: ``rng.choice(k, p=shares)`` rebuilds
        # this cumsum per call; ``searchsorted`` over the stored CDF
        # consumes the same uniform draws and picks identical indices.
        shares_cdf = self._shares_array.cumsum()
        shares_cdf /= shares_cdf[-1]
        self._shares_cdf = shares_cdf
        # TLB group lists memoized per (thread, per-region epoch keys):
        # most regions' geometry never changes across epochs, so one
        # list object serves every epoch (and downstream memos can
        # compare it by identity).  Each region's part is memoized under
        # its own key, so a growth step re-evaluates only the region
        # that grew.
        self._tlb_groups_cache: dict = {}
        self._region_groups_cache: dict = {}

    # ------------------------------------------------------------------
    # Engine-facing API
    # ------------------------------------------------------------------
    def premap_epoch(
        self,
        epoch: int,
        address_space: AddressSpace,
        thread_nodes: np.ndarray,
        thp_alloc: bool,
        interleave: bool = False,
    ) -> FaultBatch:
        """Allocation work for this epoch, across regions.

        ``interleave`` places new memory round-robin across nodes
        (numactl --interleave) instead of first-touch.
        """
        batch = FaultBatch.zeros(self.n_threads)
        for region in self.regions:
            batch.merge(
                region.premap_epoch(
                    epoch, address_space, thread_nodes, thp_alloc, interleave
                )
            )
        return batch

    def epoch_stream_into(
        self,
        thread: int,
        epoch: int,
        rng: np.random.Generator,
        length: int,
        out_granules: np.ndarray,
        out_writes: np.ndarray,
    ) -> int:
        """Draw one thread-epoch's sampled DRAM-access stream.

        Splits ``length`` accesses across regions by access share, then
        has each region draw its part straight into the caller's row
        buffers (the stream-bank arrays): granule indices into
        ``out_granules`` and, for regions with a positive
        ``write_fraction``, a store mask into ``out_writes``, which
        must arrive zeroed.  Returns the stream size; entries past it
        are left untouched.
        """
        if not 0 <= thread < self.n_threads:
            raise ConfigurationError(f"thread {thread} out of range")
        if length <= 0:
            return 0
        counts = self._region_counts(length, rng)
        pos = 0
        for region, n in zip(self.regions, counts):
            if n <= 0:
                continue
            size = region.sample_into(
                thread, int(n), epoch, rng, out_granules[pos : pos + int(n)]
            )
            if size:
                if region.write_fraction > 0.0:
                    out_writes[pos : pos + size] = (
                        rng.random(size) < region.write_fraction
                    )
                pos += size
        return pos

    def _region_counts(self, length: int, rng: np.random.Generator) -> np.ndarray:
        base = self._counts_base.get(length)
        if base is None:
            floor_counts = np.floor(self._shares_array * length).astype(np.int64)
            base = (floor_counts, length - int(floor_counts.sum()))
            self._counts_base[length] = base
        counts = base[0].copy()
        deficit = base[1]
        if deficit > 0:
            extra = self._shares_cdf.searchsorted(rng.random(deficit), side="right")
            np.add.at(counts, extra, 1)
        return counts

    def tlb_groups(self, thread: int, epoch: int) -> List[TlbGroup]:
        """Analytic working-set description of a thread for the TLB model.

        Lists are memoized per ``(thread, epoch key)`` — see
        :meth:`Region.tlb_epoch_key` — and shared with callers, who
        must treat them as immutable.  Repeated calls with an unchanged
        key return the *same* list object, so the engine's per-thread
        TLB memo can compare group lists by identity.  Each region
        evaluates its part once per ``(thread, region key)``.
        """
        keys = tuple(r.tlb_epoch_key(epoch) for r in self.regions)
        groups = self._tlb_groups_cache.get((thread, keys))
        if groups is None:
            groups = []
            for index, (region, share, region_key) in enumerate(
                zip(self.regions, self._norm_shares, keys)
            ):
                part_key = (index, thread, region_key)
                part = self._region_groups_cache.get(part_key)
                if part is None:
                    part = region.tlb_groups(thread, epoch, share)
                    self._region_groups_cache[part_key] = part
                groups.extend(part)
            self._tlb_groups_cache[(thread, keys)] = groups
        return groups

    def with_1g_backing(self) -> "WorkloadInstance":
        """A copy of this instance backed by 1GB pages (hugetlbfs mode).

        Regions are re-bound with 1GB alignment, and each premap maps
        whole 1GB pages through :meth:`AddressSpace.map_range_1g`: on
        the first-touch owner's node, or round-robin under interleave.
        Used by the paper's Section 4.4 very-large-page study.
        """
        return WorkloadInstance(
            name=self.name,
            machine=self.machine,
            regions=self.regions,
            cost=self.cost,
            total_epochs=self.total_epochs,
            seed=self.seed,
            n_threads=self.n_threads,
            backing_1g=True,
        )


@dataclass(frozen=True)
class Workload:
    """A named workload factory.

    ``builder(machine, scale, seed)`` returns a fresh
    :class:`WorkloadInstance`; ``scale`` in (0, 1] shrinks footprints
    and epoch counts for quick runs while preserving the pattern
    structure.
    """

    name: str
    description: str
    builder: Callable[[NumaTopology, float, int], WorkloadInstance]
    suite: str = "misc"
    tags: tuple = field(default_factory=tuple)

    def instantiate(
        self, machine: NumaTopology, scale: float = 1.0, seed: int = 0
    ) -> WorkloadInstance:
        """Build an instance of this workload for a machine."""
        if not 0 < scale <= 1.0:
            raise ConfigurationError("scale must be in (0, 1]")
        return self.builder(machine, scale, seed)
