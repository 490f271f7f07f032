"""Region primitives that compose into benchmark models.

Each region owns a contiguous granule extent inside the workload's
address space and defines three things:

* a **first-touch pattern** (which thread faults which granule first —
  this is what determines NUMA placement under Linux's default policy);
* an **access distribution** (who reads what, how often, how skewed);
* its **TLB geometry** (how many distinct translations a thread needs
  at each backing granularity).

Four region kinds cover the paper's benchmark traits:

:class:`PartitionedRegion`
    Per-thread data interleaved in small blocks — the source of
    page-level *false sharing* under 2MB pages (UA).
:class:`SharedRegion`
    A heap shared by all threads with optional zipf skew — clustered
    skew concentrates traffic on few 2MB chunks (SPECjbb imbalance).
:class:`HotRegion`
    A compact, uniformly hot array — coalesces into fewer hot 2MB
    pages than NUMA nodes (CG's *hot-page effect*).
:class:`StreamRegion`
    Per-thread streams that may keep growing — allocation-storm and
    TLB-pressure behaviour (Metis WC/WR/wrmem, SSCA).
"""

from __future__ import annotations

import math
from typing import List, Optional, TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError, MappingError
from repro.vm.address_space import AddressSpace
from repro.vm.layout import (
    GRANULES_PER_1G,
    GRANULES_PER_2M,
    PAGE_4K,
    SHIFT_1G,
    SHIFT_2M,
)
from repro.workloads.base import FaultBatch, TlbGroup

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.base import WorkloadInstance

_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


def _hash_owner(indices: np.ndarray, n_threads: int, salt: int) -> np.ndarray:
    """Deterministic pseudo-random owner assignment for stripes/chunks.

    The salt is taken modulo 2**64, the width the hash wraps at, so any
    integer seed (negative or past 64 bits) hashes.
    """
    x = indices.astype(np.uint64) + np.uint64(salt % (1 << 64))
    x = (x * _HASH_MULT) >> np.uint64(29)
    return (x % np.uint64(n_threads)).astype(np.int64)


def granules_of(n_bytes: int) -> int:
    """Granules covering ``n_bytes`` (rounded up, at least 1)."""
    if n_bytes <= 0:
        raise ConfigurationError("region sizes must be positive")
    return max(1, -(-n_bytes // PAGE_4K))


class Region:
    """Base region: extent bookkeeping and premap helpers."""

    #: Fraction of this region's accesses that are stores.  Subclasses
    #: and workload specs override it; the replication logic only
    #: replicates pages whose samples contain no stores.
    write_fraction: float = 0.25

    def __init__(self, name: str, access_share: float) -> None:
        if access_share < 0:
            raise ConfigurationError("access_share must be non-negative")
        self.name = name
        self.access_share = access_share
        self.lo = -1
        self.hi = -1
        self.n_threads = 0
        self.backing_1g = False
        self.seed = 0

    # -- binding -------------------------------------------------------
    def logical_granules(self) -> int:
        """Granules the access pattern addresses (pre-alignment)."""
        raise NotImplementedError

    def bind(self, instance: "WorkloadInstance", lo: int, align: int) -> None:
        """Place the region at granule ``lo`` and finish construction."""
        self.n_threads = instance.n_threads
        self.backing_1g = instance.backing_1g
        self.seed = instance.seed
        self.lo = lo
        logical = self.logical_granules()
        rounded = -(-logical // align) * align
        self.hi = lo + rounded
        self._on_bind(logical)

    def _on_bind(self, logical_granules: int) -> None:
        """Hook for subclasses to build internal tables."""

    @property
    def n_granules(self) -> int:
        """Total granules in the (aligned) extent."""
        return self.hi - self.lo

    # -- first-touch placement ----------------------------------------
    def owner_of_local(self, local_granules: np.ndarray) -> np.ndarray:
        """First-touch owner thread per region-local granule index."""
        raise NotImplementedError

    def premap_epoch(
        self,
        epoch: int,
        address_space: AddressSpace,
        thread_nodes: np.ndarray,
        thp_alloc: bool,
        interleave: bool = False,
    ) -> FaultBatch:
        """Default: materialise the whole region at epoch 0."""
        if epoch != 0:
            return FaultBatch.zeros(self.n_threads)
        return self._premap_range(
            address_space, thread_nodes, thp_alloc, 0, self.n_granules, interleave
        )

    def _premap_range(
        self,
        address_space: AddressSpace,
        thread_nodes: np.ndarray,
        thp_alloc: bool,
        local_lo: int,
        local_hi: int,
        interleave: bool = False,
    ) -> FaultBatch:
        """Map local range [local_lo, local_hi) per the first-touch pattern.

        With ``interleave`` the *placement* is numactl-style round-robin
        over nodes (the faulting thread — hence the fault accounting —
        is unchanged; only where the memory lands differs).
        """
        batch = FaultBatch.zeros(self.n_threads)
        n_nodes = len(address_space.phys)
        if local_hi <= local_lo:
            return batch
        if self.backing_1g:
            lo_g = self.lo + local_lo
            hi_g = self.lo + local_hi
            if lo_g % GRANULES_PER_1G or hi_g % GRANULES_PER_1G:
                raise MappingError("1GB-backed regions must grow in 1GB units")
            for gchunk in range(lo_g >> SHIFT_1G, hi_g >> SHIFT_1G):
                local = (gchunk << SHIFT_1G) - self.lo
                owner = int(self.owner_of_local(np.array([local]))[0])
                node = (gchunk % n_nodes) if interleave else int(thread_nodes[owner])
                address_space.map_range_1g(gchunk << SHIFT_1G, GRANULES_PER_1G, node)
                batch.faults_1g[owner] += 1
            return batch
        if thp_alloc:
            lo_g = self.lo + local_lo
            hi_g = self.lo + local_hi
            if lo_g % GRANULES_PER_2M or hi_g % GRANULES_PER_2M:
                raise MappingError("THP premap ranges must be 2MB-aligned")
            chunk_lo = lo_g >> SHIFT_2M
            chunk_hi = hi_g >> SHIFT_2M
            chunks = np.arange(chunk_lo, chunk_hi, dtype=np.int64)
            chunk_first_local = (chunks << SHIFT_2M) - self.lo
            owners = self.owner_of_local(chunk_first_local)
            if interleave:
                nodes = (chunks % n_nodes).astype(np.int8)
            else:
                nodes = thread_nodes[owners].astype(np.int8)
            backed = address_space.premap_pattern_2m(chunk_lo, nodes)
            np.add.at(batch.faults_2m, owners[backed], 1.0)
            # Chunks that fell back to base pages fault granule by
            # granule, exactly as an un-THP'd premap would.
            np.add.at(
                batch.faults_4k, owners[~backed], float(GRANULES_PER_2M)
            )
            return batch
        local = np.arange(local_lo, local_hi, dtype=np.int64)
        owners = self.owner_of_local(local)
        if interleave:
            nodes = ((self.lo + local) % n_nodes).astype(np.int8)
        else:
            nodes = thread_nodes[owners].astype(np.int8)
        address_space.premap_pattern_4k(self.lo + local_lo, nodes)
        counts = np.bincount(owners, minlength=self.n_threads)
        batch.faults_4k += counts
        return batch

    # -- access generation --------------------------------------------
    def sample_into(
        self,
        thread: int,
        n: int,
        epoch: int,
        rng: np.random.Generator,
        out: np.ndarray,
    ) -> int:
        """Draw ``n`` accessed granule indices for a thread-epoch into
        ``out`` (at least ``n`` long); returns the number written."""
        raise NotImplementedError

    def tlb_groups(self, thread: int, epoch: int, norm_share: float) -> List[TlbGroup]:
        """Working-set groups for the TLB model (weights sum to share)."""
        raise NotImplementedError

    def tlb_epoch_key(self, epoch: int):
        """Hashable summary of :meth:`tlb_groups`' epoch dependence.

        :class:`~repro.workloads.base.WorkloadInstance` memoizes group
        lists per ``(thread, key)``; regions whose geometry is
        epoch-invariant return ``None`` so one list serves every
        epoch.  The base default keys on the epoch itself — no
        cross-epoch reuse, so unknown subclasses can never be served
        stale groups.
        """
        return epoch


class PartitionedRegion(Region):
    """Per-thread partitions laid out in interleaved blocks.

    Thread ``t`` owns and accesses every block whose shifted index maps
    to ``t``; blocks are ``block_bytes`` long.  Small blocks mean a 2MB
    chunk holds blocks of many different threads: private data, shared
    page — the paper's *page-level false sharing*.  ``neighbor_share``
    sends a fraction of accesses into the two adjacent threads'
    partitions (boundary sharing that exists even at 4KB).

    With ``contiguous=True`` each thread's partition is one dense slice
    (no false sharing; models well-partitioned HPC codes).
    """

    def __init__(
        self,
        name: str,
        bytes_per_thread: int,
        access_share: float,
        block_bytes: int = 64 * 1024,
        neighbor_share: float = 0.0,
        contiguous: bool = False,
        boundary_fraction: float = 0.1,
        tlb_run_length: float = 2000.0,
    ) -> None:
        super().__init__(name, access_share)
        if not 0 <= neighbor_share < 1:
            raise ConfigurationError("neighbor_share must be in [0, 1)")
        if not 0 < boundary_fraction <= 1:
            raise ConfigurationError("boundary_fraction must be in (0, 1]")
        self.bytes_per_thread = bytes_per_thread
        self.block_granules = max(1, granules_of(block_bytes))
        self.neighbor_share = neighbor_share
        self.contiguous = contiguous
        self.boundary_fraction = boundary_fraction
        self.tlb_run_length = tlb_run_length
        self._per_thread_granules = granules_of(bytes_per_thread)
        self._blocks_per_thread = 0
        self._block_lists: List[np.ndarray] = []
        self._boundary_lists: List[np.ndarray] = []

    def logical_granules(self) -> int:
        # Known only after bind gives n_threads; bind calls this after
        # setting n_threads.
        per_g = self._per_thread_granules
        blocks = -(-per_g // self.block_granules)
        return blocks * self.block_granules * self.n_threads

    def _on_bind(self, logical_granules: int) -> None:
        self._blocks_per_thread = -(-self._per_thread_granules // self.block_granules)
        n_blocks = self._blocks_per_thread * self.n_threads
        block_idx = np.arange(n_blocks, dtype=np.int64)
        if self.contiguous:
            owners = block_idx // self._blocks_per_thread
        else:
            # Round-robin within each group of T consecutive blocks,
            # rotated by a per-group hash.  Every thread owns exactly
            # blocks_per_thread blocks (each group covers all threads
            # once), while chunk first-touchers vary pseudo-randomly —
            # no degenerate owner subsets for any block size.
            group = block_idx // self.n_threads
            rotation = _hash_owner(group, self.n_threads, salt=7)
            owners = ((block_idx % self.n_threads) + rotation) % self.n_threads
        self._owners = owners
        self._block_lists = [
            np.flatnonzero(owners == t) for t in range(self.n_threads)
        ]
        # Boundary blocks: the slice of each partition that neighbours
        # touch.  Only these become shared pages at 4KB, giving the
        # moderate baseline PSP the paper reports for UA.
        self._boundary_lists = [
            blocks[: max(1, int(len(blocks) * self.boundary_fraction))]
            for blocks in self._block_lists
        ]

    def owner_of_local(self, local_granules: np.ndarray) -> np.ndarray:
        block = np.asarray(local_granules, dtype=np.int64) // self.block_granules
        block = np.minimum(block, len(self._owners) - 1)
        return self._owners[block]

    def _sample_from_blocks_into(
        self, blocks: np.ndarray, n: int, rng: np.random.Generator, out: np.ndarray
    ) -> None:
        chosen = blocks[rng.integers(0, len(blocks), size=n)]
        np.multiply(chosen, self.block_granules, out=out)
        out += rng.integers(0, self.block_granules, size=n)
        out += self.lo

    def sample_into(
        self,
        thread: int,
        n: int,
        epoch: int,
        rng: np.random.Generator,
        out: np.ndarray,
    ) -> int:
        n_neighbor = (
            int(rng.binomial(n, self.neighbor_share)) if self.neighbor_share else 0
        )
        pos = 0
        if n - n_neighbor > 0:
            pos = n - n_neighbor
            self._sample_from_blocks_into(
                self._block_lists[thread], pos, rng, out[:pos]
            )
        if n_neighbor > 0:
            half = n_neighbor // 2
            for neighbor, m in (
                ((thread + 1) % self.n_threads, n_neighbor - half),
                ((thread - 1) % self.n_threads, half),
            ):
                if m > 0:
                    self._sample_from_blocks_into(
                        self._boundary_lists[neighbor], m, rng, out[pos : pos + m]
                    )
                    pos += m
        return pos

    def _distincts(self, n_blocks: float) -> tuple:
        granules = n_blocks * self.block_granules
        n_chunks = self.n_granules / GRANULES_PER_2M
        n_gchunks = max(1.0, self.n_granules / GRANULES_PER_1G)
        if self.contiguous:
            return (granules, max(1.0, granules / GRANULES_PER_2M),
                    max(1.0, granules / GRANULES_PER_1G))
        return (granules, min(n_chunks, n_blocks), min(n_gchunks, n_blocks))

    def tlb_groups(self, thread: int, epoch: int, norm_share: float) -> List[TlbGroup]:
        d4, d2, d1 = self._distincts(float(self._blocks_per_thread))
        groups = [
            TlbGroup(
                lo=self.lo,
                hi=self.hi,
                weight=norm_share * (1.0 - self.neighbor_share),
                distinct_4k=d4,
                distinct_2m=d2,
                distinct_1g=d1,
                run_length=self.tlb_run_length,
                sequential=True,
            )
        ]
        if self.neighbor_share > 0:
            boundary_blocks = 2.0 * len(self._boundary_lists[thread])
            nd4, nd2, nd1 = self._distincts(boundary_blocks)
            groups.append(
                TlbGroup(
                    lo=self.lo,
                    hi=self.hi,
                    weight=norm_share * self.neighbor_share,
                    distinct_4k=nd4,
                    distinct_2m=nd2,
                    distinct_1g=nd1,
                    run_length=self.tlb_run_length,
                    sequential=True,
                )
            )
        return groups

    def tlb_epoch_key(self, epoch: int):
        """Partition geometry never changes across epochs."""
        return None


class SharedRegion(Region):
    """A region accessed by every thread, optionally zipf-skewed.

    Popularity follows ``rank^-zipf_s`` over granules.  With
    ``clustered=True`` hot ranks occupy consecutive addresses (hot data
    that coalesces into few 2MB chunks under THP); otherwise ranks are
    spread by a bijective multiplicative hash (hot 4KB pages scattered
    across the extent).

    First-touch striping: granule stripes of ``stripe_bytes`` are
    first-touched by pseudo-randomly assigned threads, as happens when
    a parallel loop initialises a shared array.  With
    ``master_init=True`` the master thread initialises everything
    (single-threaded setup code): the whole region lands on one node —
    a pre-existing NUMA problem that exists at any page size and that
    Carrefour fixes regardless of THP (the paper's EP/SP/pca cases).
    """

    def __init__(
        self,
        name: str,
        total_bytes: int,
        access_share: float,
        zipf_s: float = 0.0,
        clustered: bool = True,
        stripe_bytes: int = 64 * 1024,
        n_buckets: int = 24,
        master_init: bool = False,
        tlb_run_length: float = 200.0,
        private_consumers: bool = False,
        chunk_header_bias: float = 0.0,
        write_fraction: float = 0.25,
    ) -> None:
        super().__init__(name, access_share)
        if not 0.0 <= write_fraction <= 1.0:
            raise ConfigurationError("write_fraction must be in [0, 1]")
        self.write_fraction = write_fraction
        if zipf_s < 0:
            raise ConfigurationError("zipf_s must be non-negative")
        if n_buckets <= 0:
            raise ConfigurationError("n_buckets must be positive")
        self.total_bytes = total_bytes
        self.zipf_s = zipf_s
        self.clustered = clustered
        self.stripe_granules = max(1, granules_of(stripe_bytes))
        self.n_buckets = n_buckets
        self.master_init = master_init
        self.tlb_run_length = tlb_run_length
        #: Each rank is accessed by exactly one thread (rank mod T), but
        #: *placement* follows the striping hash — the managed-heap /
        #: GC-compaction pattern (SPECjbb): single-consumer data whose
        #: physical location is unrelated to its consumer.  At 4KB no
        #: page is shared (low PSP) yet locality is ~1/n_nodes; a 2MB
        #: page mixes many consumers (PSP jumps under THP).
        self.private_consumers = private_consumers
        #: Probability that the *first stripe of each 2MB chunk* is
        #: first-touched by thread 0 (an allocator/GC master writing
        #: chunk headers).  At 4KB this affects a sliver of memory and
        #: leaves placement balanced; under THP the whole chunk follows
        #: its header onto the master's node — the correlated placement
        #: that drives SPECjbb's imbalance from 16% to 39% in the paper.
        if not 0.0 <= chunk_header_bias <= 1.0:
            raise ConfigurationError("chunk_header_bias must be in [0, 1]")
        self.chunk_header_bias = chunk_header_bias
        self._logical = granules_of(total_bytes)

    def logical_granules(self) -> int:
        return self._logical

    def _on_bind(self, logical_granules: int) -> None:
        u = self._logical
        if self.zipf_s == 0:
            edges = np.array([0, u], dtype=np.int64)
        else:
            # Geometric rank buckets: [0,1), [1,2), [2,4), ... capped at U.
            raw = [0, 1]
            while raw[-1] < u:
                raw.append(min(u, raw[-1] * 2))
            edges = np.array(sorted(set(raw)), dtype=np.int64)
            if len(edges) - 1 > self.n_buckets:
                # Merge the smallest-weight tail buckets to the cap.
                keep = np.concatenate(
                    [edges[: self.n_buckets], edges[-1:]]
                )
                edges = np.unique(keep)
        self._bucket_lo = edges[:-1]
        self._bucket_hi = edges[1:]
        self._bucket_span = self._bucket_hi - self._bucket_lo
        self._bucket_sizes = self._bucket_span.astype(np.float64)
        if self.zipf_s == 0:
            weights = self._bucket_sizes.copy()
        else:
            weights = np.array(
                [
                    _zipf_mass(float(a), float(b), self.zipf_s)
                    for a, b in zip(self._bucket_lo, self._bucket_hi)
                ]
            )
        self._bucket_weights = weights / weights.sum()
        # Precomputed CDF for bucket selection.  ``Generator.choice``
        # with ``p=`` rebuilds (and re-validates) this cumsum on every
        # call; ``searchsorted`` over the stored CDF consumes the same
        # ``rng.random(n)`` draws and returns bit-identical buckets.
        cdf = self._bucket_weights.cumsum()
        cdf /= cdf[-1]
        self._bucket_cdf = cdf
        # Bijective multiplicative hash for the non-clustered layout.
        mult = 2654435761 % u
        if mult in (0, 1):
            mult = max(3, u // 3) | 1
        while math.gcd(mult, u) != 1:
            mult += 1
        self._perm_mult = mult

    def _rank_to_local(self, ranks: np.ndarray) -> np.ndarray:
        if self.clustered:
            return ranks
        # Affine bijection mod U: multiplicative spread plus an offset
        # so the hottest rank does not sit at the region base.
        offset = (self._logical * 5) // 7
        return (ranks * self._perm_mult + offset) % self._logical

    def owner_of_local(self, local_granules: np.ndarray) -> np.ndarray:
        local = np.asarray(local_granules, dtype=np.int64)
        if self.master_init:
            return np.zeros(local.shape, dtype=np.int64)
        stripes = local // self.stripe_granules
        owners = _hash_owner(stripes, self.n_threads, salt=self.seed + 101)
        if self.chunk_header_bias > 0.0:
            chunk = local // GRANULES_PER_2M
            in_header_stripe = stripes == (
                chunk * GRANULES_PER_2M // self.stripe_granules
            )
            coin = _hash_owner(chunk, 1000, salt=self.seed + 777)
            master_owned = in_header_stripe & (
                coin < int(self.chunk_header_bias * 1000)
            )
            owners = np.where(master_owned, 0, owners)
        return owners

    def sample_into(
        self,
        thread: int,
        n: int,
        epoch: int,
        rng: np.random.Generator,
        out: np.ndarray,
    ) -> int:
        buckets = self._bucket_cdf.searchsorted(rng.random(n), side="right")
        lo = self._bucket_lo[buckets]
        size = self._bucket_span[buckets]
        if self.private_consumers:
            # Thread t owns ranks congruent to t modulo n_threads.
            t = np.int64(self.n_threads)
            offset = (thread - lo) % t
            slots = np.maximum((size - offset + t - 1) // t, 1)
            ranks = lo + offset + (rng.random(n) * slots).astype(np.int64) * t
            ranks = np.minimum(ranks, self._logical - 1)
        else:
            ranks = lo + (rng.random(n) * size).astype(np.int64)
        np.add(self._rank_to_local(ranks), self.lo, out=out[:n])
        return n

    def tlb_groups(self, thread: int, epoch: int, norm_share: float) -> List[TlbGroup]:
        groups = []
        n_chunks = max(1.0, self.n_granules / GRANULES_PER_2M)
        n_gchunks = max(1.0, self.n_granules / GRANULES_PER_1G)
        for lo, hi, w in zip(self._bucket_lo, self._bucket_hi, self._bucket_weights):
            extent = float(hi - lo)
            count = extent
            if self.private_consumers:
                # The thread only touches its own ranks, which are
                # strided across the whole bucket extent.
                count = max(1.0, extent / self.n_threads)
            if self.clustered:
                d2 = min(count, max(1.0, extent / GRANULES_PER_2M))
                d1 = min(count, max(1.0, extent / GRANULES_PER_1G))
            else:
                d2 = min(n_chunks, count)
                d1 = min(n_gchunks, count)
            groups.append(
                TlbGroup(
                    lo=self.lo,
                    hi=self.hi,
                    weight=norm_share * float(w),
                    distinct_4k=count,
                    distinct_2m=d2,
                    distinct_1g=d1,
                    run_length=self.tlb_run_length,
                    sequential=False,
                )
            )
        return groups

    def tlb_epoch_key(self, epoch: int):
        """Bucket geometry is fixed at bind time."""
        return None


def _zipf_mass(a: float, b: float, s: float) -> float:
    """Approximate sum of (i+1)^-s for integer ranks i in [a, b)."""
    if b <= a:
        return 0.0
    if abs(s - 1.0) < 1e-9:
        return math.log(b + 1.0) - math.log(a + 1.0)
    return ((b + 1.0) ** (1.0 - s) - (a + 1.0) ** (1.0 - s)) / (1.0 - s)


class HotRegion(SharedRegion):
    """A compact, uniformly hot shared array (the hot-page substrate).

    Small stripes spread the constituent 4KB pages across all nodes
    under first-touch, so load is balanced at 4KB; under THP the whole
    array collapses into a handful of 2MB pages, each pinned to one
    node — fewer hot pages than nodes means imbalance that migration
    cannot fix (paper Section 3.1, CG).
    """

    def __init__(
        self,
        name: str,
        total_bytes: int,
        access_share: float,
        stripe_bytes: int = 32 * 1024,
        tlb_run_length: float = 32.0,
    ) -> None:
        super().__init__(
            name,
            total_bytes=total_bytes,
            access_share=access_share,
            zipf_s=0.0,
            clustered=True,
            stripe_bytes=stripe_bytes,
            tlb_run_length=tlb_run_length,
        )


class StreamRegion(Region):
    """Per-thread streaming data, optionally growing over the run.

    Each thread owns a contiguous slice.  With ``grow_epochs > 0`` the
    slice is faulted in gradually (``1/grow_epochs`` per epoch), which
    keeps the page-fault handler busy for the whole run — the Metis
    ingest pattern that makes WC spend 37% of its time in the fault
    handler under 4KB pages.  Accesses favour the most recently grown
    window (``recency`` fraction).
    """

    def __init__(
        self,
        name: str,
        bytes_per_thread: int,
        access_share: float,
        grow_epochs: int = 0,
        window_bytes: Optional[int] = None,
        recency: float = 0.7,
        tlb_run_length: float = 1200.0,
    ) -> None:
        super().__init__(name, access_share)
        if grow_epochs < 0:
            raise ConfigurationError("grow_epochs must be non-negative")
        if not 0 <= recency <= 1:
            raise ConfigurationError("recency must be in [0, 1]")
        self.bytes_per_thread = bytes_per_thread
        self.grow_epochs = grow_epochs
        self.recency = recency
        self.tlb_run_length = tlb_run_length
        self._per_g = granules_of(bytes_per_thread)
        # Round per-thread slices to chunk multiples so growth and THP
        # premaps stay aligned.
        self._per_g = -(-self._per_g // GRANULES_PER_2M) * GRANULES_PER_2M
        self.window_granules = (
            granules_of(window_bytes) if window_bytes else self._per_g
        )

    def logical_granules(self) -> int:
        if self.backing_1g:
            # 1GB growth units: round each slice up to 1GB.
            self._per_g = -(-self._per_g // GRANULES_PER_1G) * GRANULES_PER_1G
        return self._per_g * self.n_threads

    def owner_of_local(self, local_granules: np.ndarray) -> np.ndarray:
        owners = np.asarray(local_granules, dtype=np.int64) // self._per_g
        return np.minimum(owners, self.n_threads - 1)

    def grown_granules(self, epoch: int) -> int:
        """Granules of each thread's slice mapped by the end of ``epoch``."""
        if self.grow_epochs <= 0:
            return self._per_g
        steps = min(epoch + 1, self.grow_epochs)
        grown = (self._per_g * steps) // self.grow_epochs
        grown = -(-grown // GRANULES_PER_2M) * GRANULES_PER_2M
        if self.backing_1g:
            grown = -(-grown // GRANULES_PER_1G) * GRANULES_PER_1G
        return min(grown, self._per_g)

    def premap_epoch(
        self,
        epoch: int,
        address_space: AddressSpace,
        thread_nodes: np.ndarray,
        thp_alloc: bool,
        interleave: bool = False,
    ) -> FaultBatch:
        prev = 0 if epoch == 0 else self.grown_granules(epoch - 1)
        now = self.grown_granules(epoch)
        batch = FaultBatch.zeros(self.n_threads)
        if now <= prev and epoch > 0:
            return batch
        for t in range(self.n_threads):
            base = t * self._per_g
            batch.merge(
                self._premap_range(
                    address_space,
                    thread_nodes,
                    thp_alloc,
                    base + prev,
                    base + now,
                    interleave,
                )
            )
        return batch

    def sample_into(
        self,
        thread: int,
        n: int,
        epoch: int,
        rng: np.random.Generator,
        out: np.ndarray,
    ) -> int:
        grown = self.grown_granules(epoch)
        base = self.lo + thread * self._per_g
        window = min(self.window_granules, grown)
        n_recent = int(rng.binomial(n, self.recency)) if self.recency > 0 else 0
        if n_recent:
            np.add(
                rng.integers(0, window, size=n_recent),
                base + (grown - window),
                out=out[:n_recent],
            )
        if n - n_recent:
            np.add(
                rng.integers(0, grown, size=n - n_recent),
                base,
                out=out[n_recent:n],
            )
        return n

    def tlb_groups(self, thread: int, epoch: int, norm_share: float) -> List[TlbGroup]:
        grown = self.grown_granules(epoch)
        window = min(self.window_granules, grown)
        base = self.lo + thread * self._per_g
        groups = [
            TlbGroup(
                lo=base + grown - window,
                hi=base + grown,
                weight=norm_share * self.recency,
                distinct_4k=float(window),
                distinct_2m=max(1.0, window / GRANULES_PER_2M),
                distinct_1g=max(1.0, window / GRANULES_PER_1G),
                run_length=self.tlb_run_length,
                sequential=True,
            )
        ]
        if self.recency < 1.0:
            groups.append(
                TlbGroup(
                    lo=base,
                    hi=base + grown,
                    weight=norm_share * (1.0 - self.recency),
                    distinct_4k=float(grown),
                    distinct_2m=max(1.0, grown / GRANULES_PER_2M),
                    distinct_1g=max(1.0, grown / GRANULES_PER_1G),
                    run_length=self.tlb_run_length,
                    sequential=True,
                )
            )
        return groups

    def tlb_epoch_key(self, epoch: int):
        """Groups depend on the epoch only through the grown extent."""
        return self.grown_granules(epoch)
