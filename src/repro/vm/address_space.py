"""Multi-size virtual address space with NUMA-aware physical backing.

The address space is the central mutable state of the simulation.  It
maps 4KB granules of virtual memory to NUMA nodes at one of three
backing granularities (4KB, 2MB, 1GB) and exposes exactly the
operations the paper's algorithms actuate:

* demand faulting with first-touch placement (optionally THP-backed),
* huge-page **splitting** (2MB -> 4KB, 1GB -> 4KB),
* huge-page **promotion** (collapse of 512 mapped 4KB pages into 2MB),
* page **migration** at any backing granularity.

Representation: flat numpy arrays indexed by granule / 2MB-chunk / 1GB-
chunk, so translation of whole access streams is vectorised.  Physical
capacity is accounted against :class:`repro.vm.frame_allocator.PhysicalMemory`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import AllocationError, MappingError
from repro.vm.frame_allocator import PhysicalMemory
from repro.units import (
    Bytes,
    BytesArray,
    NodeArray,
    NodeId,
    Pages4K,
    Pages4KArray,
)
from repro.vm.layout import (
    CHUNKS_2M_PER_1G,
    GRANULES_PER_1G,
    GRANULES_PER_2M,
    PAGE_4K,
    PageSize,
    SHIFT_1G,
    SHIFT_2M,
)

#: Backing-id encoding offsets (granule counts stay far below 2**36).
BACKING_ID_2M_OFFSET = 1 << 40
BACKING_ID_1G_OFFSET = 1 << 41


@dataclass
class FaultStats:
    """Page-fault counts produced by one fault or premap operation."""

    faults_4k: int = 0
    faults_2m: int = 0
    faults_1g: int = 0

    def merge(self, other: "FaultStats") -> None:
        """Accumulate another operation's counts into this one."""
        self.faults_4k += other.faults_4k
        self.faults_2m += other.faults_2m
        self.faults_1g += other.faults_1g

    @property
    def total(self) -> int:
        """Total number of faults of any size."""
        return self.faults_4k + self.faults_2m + self.faults_1g


class AddressSpace:
    """One process's virtual address space over simulated physical memory."""

    def __init__(
        self, n_granules: Pages4K, phys: PhysicalMemory, label: str = "anon"
    ) -> None:
        if n_granules <= 0:
            raise MappingError("address space must cover at least one granule")
        self.label = label
        self.n_granules: Pages4K = int(n_granules)
        self.n_chunks_2m = -(-self.n_granules // GRANULES_PER_2M)
        self.n_chunks_1g = -(-self.n_granules // GRANULES_PER_1G)
        self.phys = phys
        self.n_nodes = len(phys)

        # Per-granule node when 4KB-mapped; -1 when unmapped or covered
        # by a larger backing page.
        self.node4k = np.full(self.n_granules, -1, dtype=np.int8)
        # 2MB chunks.
        self.huge = np.zeros(self.n_chunks_2m, dtype=bool)
        self.node2m = np.full(self.n_chunks_2m, -1, dtype=np.int8)
        self._block2m = np.full(self.n_chunks_2m, -1, dtype=np.int64)
        # Chunks madvised MADV_NOHUGEPAGE: khugepaged must not
        # re-collapse them (set by policies after deliberate splits).
        self.collapse_blocked = np.zeros(self.n_chunks_2m, dtype=bool)
        # Replication (Carrefour's third mechanism): a replicated page
        # has a copy on every node, so reads are always local; the
        # first write collapses the replicas.
        self.replicated_4k = np.zeros(self.n_granules, dtype=bool)
        self.replicated_2m = np.zeros(self.n_chunks_2m, dtype=bool)
        self._replica_blocks: Dict[int, Dict[int, int]] = {}
        self.replica_bytes: Bytes = 0
        # Count of 4KB-mapped granules per 2MB chunk (promotion check).
        self.mapped_count_2m = np.zeros(self.n_chunks_2m, dtype=np.int32)
        # 1GB chunks.
        self.giga = np.zeros(self.n_chunks_1g, dtype=bool)
        self.node1g = np.full(self.n_chunks_1g, -1, dtype=np.int8)
        self._block1g = np.full(self.n_chunks_1g, -1, dtype=np.int64)
        # Cumulative bytes unmapped by reclaim/teardown.  Mapped
        # footprint alone is no longer monotonic once memory pressure
        # can evict pages; ``mapped_bytes() + reclaimed_bytes`` is, and
        # the invariant checker tracks exactly that sum.
        self.reclaimed_bytes: Bytes = 0
        # Monotonic mutation counter: bumped by every operation that can
        # change translation or backing composition (map, fault, split,
        # collapse, migrate, replicate).  Consumers (the engine's
        # backing-fraction/TLB caches, the resolved home map below) key
        # their caches on it so quiescent epochs skip rescanning the
        # ``huge``/``giga`` bitmaps.
        self._version = 0
        # Resolved per-granule home map, built lazily once the space is
        # observed quiescent (two translations at the same version), so
        # churn phases never pay the O(n_granules) build.
        self._home_map: Optional[np.ndarray] = None
        self._home_map_version = -1
        self._translated_version = -1

    @property
    def version(self) -> int:
        """Monotonic counter of backing-state mutations.

        Any operation that can change what :meth:`home_nodes`,
        :meth:`backing_info` or a backing-composition scan would return
        increments it; pure reads never do.
        """
        return self._version

    def _bump_version(self) -> None:
        self._version += 1

    # ------------------------------------------------------------------
    # Translation (vectorised)
    # ------------------------------------------------------------------
    def _resolved_home_map(self) -> Optional[np.ndarray]:
        """Per-granule resolved home nodes, or None while churning.

        The map is only built on the second translation request at an
        unchanged :attr:`version`: one bulk expansion of the 2MB/1GB
        node arrays then serves every later translation at this version
        with a single gather.
        """
        v = self._version
        if self._home_map is not None and self._home_map_version == v:
            return self._home_map
        if self._translated_version != v:
            self._translated_version = v
            return None
        home_map = self.node4k.copy()
        if np.any(self.huge):
            nodes2 = np.repeat(self.node2m, GRANULES_PER_2M)[: self.n_granules]
            mask2 = np.repeat(self.huge, GRANULES_PER_2M)[: self.n_granules]
            np.copyto(home_map, nodes2, where=mask2)
        if np.any(self.giga):
            nodes1 = np.repeat(self.node1g, GRANULES_PER_1G)[: self.n_granules]
            mask1 = np.repeat(self.giga, GRANULES_PER_1G)[: self.n_granules]
            np.copyto(home_map, nodes1, where=mask1)
        self._home_map = home_map
        self._home_map_version = v
        return home_map

    def home_nodes(self, granules: Pages4KArray) -> NodeArray:
        """Home node per accessed granule; -1 where unmapped."""
        g = np.asarray(granules, dtype=np.int64)
        home_map = self._resolved_home_map()
        if home_map is not None:
            return home_map[g]
        c2 = g >> SHIFT_2M
        c1 = g >> SHIFT_1G
        giga_mask = self.giga[c1]
        huge_mask = self.huge[c2]
        nodes = self.node4k[g].astype(np.int8, copy=True)
        np.copyto(nodes, self.node2m[c2], where=huge_mask)
        np.copyto(nodes, self.node1g[c1], where=giga_mask)
        return nodes

    def backing_info(self, granules: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Per-access backing-page id and page-size class.

        Ids are unique across size classes: granule index for 4KB pages,
        chunk index offset by :data:`BACKING_ID_2M_OFFSET` for 2MB, and
        by :data:`BACKING_ID_1G_OFFSET` for 1GB.
        """
        g = np.asarray(granules, dtype=np.int64)
        c2 = g >> SHIFT_2M
        c1 = g >> SHIFT_1G
        giga_mask = self.giga[c1]
        huge_mask = self.huge[c2] & ~giga_mask
        ids = g.copy()
        np.copyto(ids, c2 + BACKING_ID_2M_OFFSET, where=huge_mask)
        np.copyto(ids, c1 + BACKING_ID_1G_OFFSET, where=giga_mask)
        sizes = np.full(g.shape, int(PageSize.SIZE_4K), dtype=np.int64)
        sizes[huge_mask] = int(PageSize.SIZE_2M)
        sizes[giga_mask] = int(PageSize.SIZE_1G)
        return ids, sizes

    @staticmethod
    def backing_id_kind(backing_id: int) -> PageSize:
        """Page-size class encoded in a backing id."""
        if backing_id >= BACKING_ID_1G_OFFSET:
            return PageSize.SIZE_1G
        if backing_id >= BACKING_ID_2M_OFFSET:
            return PageSize.SIZE_2M
        return PageSize.SIZE_4K

    def granules_of_backing(self, backing_id: int) -> np.ndarray:
        """All granule indices covered by a backing page."""
        kind = self.backing_id_kind(backing_id)
        if kind is PageSize.SIZE_4K:
            return np.array([backing_id], dtype=np.int64)
        if kind is PageSize.SIZE_2M:
            chunk = backing_id - BACKING_ID_2M_OFFSET
            start = chunk << SHIFT_2M
            return np.arange(start, min(start + GRANULES_PER_2M, self.n_granules))
        chunk = backing_id - BACKING_ID_1G_OFFSET
        start = chunk << SHIFT_1G
        return np.arange(start, min(start + GRANULES_PER_1G, self.n_granules))

    def home_nodes_for(self, granules: Pages4KArray, local_node: NodeId) -> NodeArray:
        """Home node per access for a thread on ``local_node``.

        Identical to :meth:`home_nodes` except that *reads of
        replicated pages* are serviced from the local replica.
        """
        nodes = self.home_nodes(granules)
        g = np.asarray(granules, dtype=np.int64)
        replicated = self.replication_mask(g)
        if np.any(replicated):
            nodes = nodes.copy()
            nodes[replicated] = local_node
        return nodes

    def replication_mask(self, granules: np.ndarray) -> np.ndarray:
        """Whether each accessed granule lies in a replicated page."""
        g = np.asarray(granules, dtype=np.int64)
        c2 = g >> SHIFT_2M
        return self.replicated_4k[g] | (self.huge[c2] & self.replicated_2m[c2])

    def replicate_backing(self, backing_id: int) -> Bytes:
        """Replicate a page onto every other node; returns bytes copied.

        Returns 0 (no change) when the page is already replicated, is a
        1GB page (not supported, as in Carrefour), or some node cannot
        hold a replica.
        """
        kind = self.backing_id_kind(backing_id)
        if kind is PageSize.SIZE_1G:
            return 0
        if not self.backing_is_live(backing_id):
            raise MappingError(f"backing id {backing_id} is not live")
        others = [n for n in range(self.n_nodes)]
        if kind is PageSize.SIZE_4K:
            granule = backing_id
            if self.replicated_4k[granule]:
                return 0
            home = int(self.node4k[granule])
            targets = [n for n in others if n != home]
            if any(self.phys[n].free_bytes < PAGE_4K for n in targets):
                return 0
            for n in targets:
                self.phys[n].alloc_small(1)
            self.replicated_4k[granule] = True
            bytes_copied = PAGE_4K * len(targets)
            self.replica_bytes += bytes_copied
            self._bump_version()
            return bytes_copied
        chunk = backing_id - BACKING_ID_2M_OFFSET
        if self.replicated_2m[chunk]:
            return 0
        home = int(self.node2m[chunk])
        targets = [n for n in others if n != home]
        if any(not self.phys[n].can_alloc_huge() for n in targets):
            return 0
        blocks = {n: self.phys[n].alloc_huge() for n in targets}
        self.replicated_2m[chunk] = True
        self._replica_blocks[backing_id] = blocks
        bytes_copied = int(PageSize.SIZE_2M) * len(targets)
        self.replica_bytes += bytes_copied
        self._bump_version()
        return bytes_copied

    def unreplicate_backing(self, backing_id: int) -> Bytes:
        """Collapse a page's replicas (e.g. on write); returns bytes freed."""
        kind = self.backing_id_kind(backing_id)
        if kind is PageSize.SIZE_4K:
            granule = backing_id
            if not self.replicated_4k[granule]:
                return 0
            home = int(self.node4k[granule])
            freed = 0
            for n in range(self.n_nodes):
                if n != home:
                    self.phys[n].free_small(1)
                    freed += PAGE_4K
            self.replicated_4k[granule] = False
            self.replica_bytes -= freed
            self._bump_version()
            return freed
        if kind is PageSize.SIZE_2M:
            chunk = backing_id - BACKING_ID_2M_OFFSET
            if not self.replicated_2m[chunk]:
                return 0
            blocks = self._replica_blocks.pop(backing_id)
            freed = 0
            for node, block in sorted(blocks.items()):
                self.phys[node].free_huge(block)
                freed += int(PageSize.SIZE_2M)
            self.replicated_2m[chunk] = False
            self.replica_bytes -= freed
            self._bump_version()
            return freed
        return 0

    def backing_is_live(self, backing_id: int) -> bool:
        """Whether a backing id still names an existing page.

        Ids captured in a sample table go stale when the page is split
        or collapsed afterwards; policies must re-check before acting.
        """
        kind = self.backing_id_kind(backing_id)
        if kind is PageSize.SIZE_4K:
            return 0 <= backing_id < self.n_granules and self.node4k[backing_id] >= 0
        if kind is PageSize.SIZE_2M:
            chunk = backing_id - BACKING_ID_2M_OFFSET
            return 0 <= chunk < self.n_chunks_2m and bool(self.huge[chunk])
        gchunk = backing_id - BACKING_ID_1G_OFFSET
        return 0 <= gchunk < self.n_chunks_1g and bool(self.giga[gchunk])

    def backings_live(self, backing_ids: np.ndarray) -> np.ndarray:
        """:meth:`backing_is_live` for every id of an array at once."""
        ids = np.asarray(backing_ids, dtype=np.int64)
        live = np.zeros(ids.shape, dtype=bool)
        giga = ids >= BACKING_ID_1G_OFFSET
        huge = (ids >= BACKING_ID_2M_OFFSET) & ~giga
        small = ~(giga | huge)
        inside = small & (ids >= 0) & (ids < self.n_granules)
        live[inside] = self.node4k[ids[inside]] >= 0
        for mask, index, backed in (
            (huge, ids - BACKING_ID_2M_OFFSET, self.huge),
            (giga, ids - BACKING_ID_1G_OFFSET, self.giga),
        ):
            inside = mask & (index < backed.size)
            live[inside] = backed[index[inside]]
        return live

    def node_of_backing(self, backing_id: int) -> NodeId:
        """Home node of a backing page (-1 if unmapped)."""
        kind = self.backing_id_kind(backing_id)
        if kind is PageSize.SIZE_4K:
            return int(self.node4k[backing_id])
        if kind is PageSize.SIZE_2M:
            return int(self.node2m[backing_id - BACKING_ID_2M_OFFSET])
        return int(self.node1g[backing_id - BACKING_ID_1G_OFFSET])

    # ------------------------------------------------------------------
    # Faulting and explicit mapping
    # ------------------------------------------------------------------
    def _alloc_node_for(self, preferred: NodeId, huge: bool) -> NodeId:
        """Pick the node to allocate on, falling back when full."""
        node_mem = self.phys[preferred]
        if huge:
            if node_mem.can_alloc_huge():
                return preferred
        elif node_mem.free_bytes >= PAGE_4K:
            return preferred
        return self.phys.node_with_most_free()

    def fault_in(
        self, granules: Pages4KArray, node: NodeId, thp_alloc: bool
    ) -> FaultStats:
        """Demand-fault any unmapped granules in an access stream.

        First-touch policy: new memory lands on ``node`` (the faulting
        thread's node).  With ``thp_alloc``, a fault in a completely
        unmapped 2MB chunk backs the whole chunk with a huge page when a
        contiguous block is available (THP's allocation-time path);
        otherwise the touched granules are mapped as 4KB pages.
        """
        g = np.asarray(granules, dtype=np.int64)
        if g.size == 0:
            return FaultStats()
        nodes = self.home_nodes(g)
        unmapped = np.unique(g[nodes < 0])
        if unmapped.size == 0:
            return FaultStats()
        stats = FaultStats()
        chunks = np.unique(unmapped >> SHIFT_2M)
        if thp_alloc:
            fresh = chunks[
                ~self.huge[chunks] & (self.mapped_count_2m[chunks] == 0)
            ]
            fresh_set = set(int(c) for c in fresh)
        else:
            fresh_set = set()
        for chunk in chunks:
            chunk = int(chunk)
            in_chunk = unmapped[(unmapped >> SHIFT_2M) == chunk]
            if chunk in fresh_set and self._chunk_fits(chunk):
                target = self._alloc_node_for(node, huge=True)
                if self.phys[target].can_alloc_huge():
                    self._back_huge(chunk, target)
                    stats.faults_2m += 1
                    continue
            target = self._alloc_node_for(node, huge=False)
            self._map_small(in_chunk, target)
            stats.faults_4k += int(in_chunk.size)
        return stats

    def _chunk_fits(self, chunk: int) -> bool:
        """Whether the 2MB chunk lies fully inside the address space."""
        return (chunk + 1) << SHIFT_2M <= self.n_granules

    def _back_huge(self, chunk: int, node: int) -> None:
        block = self.phys[node].alloc_huge()
        self.huge[chunk] = True
        self.node2m[chunk] = node
        self._block2m[chunk] = block
        self._bump_version()

    def _map_small(self, granules: np.ndarray, node: int) -> None:
        self.phys[node].alloc_small(int(granules.size))
        self.node4k[granules] = node
        chunk_ids, counts = np.unique(granules >> SHIFT_2M, return_counts=True)
        self.mapped_count_2m[chunk_ids] += counts.astype(np.int32)
        self._bump_version()

    def premap_range(
        self, start_granule: Pages4K, n_granules: Pages4K, node: NodeId, thp_alloc: bool
    ) -> FaultStats:
        """Map an entire range on one node (bulk first-touch).

        Used by workload allocation phases: the faulting thread sweeps
        a region once, so we map it in bulk and return the fault counts
        the sweep would have produced.
        """
        if n_granules <= 0:
            return FaultStats()
        end = start_granule + n_granules
        if start_granule < 0 or end > self.n_granules:
            raise MappingError("premap range outside the address space")
        stats = FaultStats()
        g = start_granule
        while g < end:
            chunk = g >> SHIFT_2M
            chunk_start = chunk << SHIFT_2M
            chunk_end = chunk_start + GRANULES_PER_2M
            span_end = min(end, chunk_end)
            already = self.home_nodes(np.arange(g, span_end))
            todo = np.arange(g, span_end)[already < 0]
            if todo.size == 0:
                g = span_end
                continue
            whole_chunk = (
                g == chunk_start
                and span_end == chunk_end
                and not self.huge[chunk]
                and self.mapped_count_2m[chunk] == 0
            )
            if thp_alloc and whole_chunk and self._chunk_fits(chunk):
                target = self._alloc_node_for(node, huge=True)
                if self.phys[target].can_alloc_huge():
                    self._back_huge(chunk, target)
                    stats.faults_2m += 1
                    g = span_end
                    continue
            target = self._alloc_node_for(node, huge=False)
            self._map_small(todo, target)
            stats.faults_4k += int(todo.size)
            g = span_end
        return stats

    def premap_pattern_4k(self, start_granule: Pages4K, nodes: NodeArray) -> None:
        """Bulk-map a fully unmapped range as 4KB pages with given homes.

        ``nodes[i]`` is the home node of granule ``start_granule + i``.
        Used by workload allocation phases to materialise first-touch
        placement patterns without per-page Python loops.
        """
        nodes = np.asarray(nodes, dtype=np.int8)
        end = start_granule + nodes.size
        if start_granule < 0 or end > self.n_granules:
            raise MappingError("pattern outside the address space")
        if nodes.size == 0:
            return
        if np.any(nodes < 0) or np.any(nodes >= self.n_nodes):
            raise MappingError("pattern contains invalid node ids")
        span = slice(start_granule, end)
        chunk_lo = start_granule >> SHIFT_2M
        chunk_hi = ((end - 1) >> SHIFT_2M) + 1
        if np.any(self.node4k[span] >= 0) or np.any(self.huge[chunk_lo:chunk_hi]):
            raise MappingError("pattern overlaps existing mappings")
        counts = np.bincount(nodes.astype(np.int64), minlength=self.n_nodes)
        for node, count in enumerate(counts):
            if count:
                self.phys[node].alloc_small(int(count))
        self.node4k[span] = nodes
        g = np.arange(start_granule, end, dtype=np.int64)
        chunk_ids, chunk_counts = np.unique(g >> SHIFT_2M, return_counts=True)
        self.mapped_count_2m[chunk_ids] += chunk_counts.astype(np.int32)
        self._bump_version()

    def premap_pattern_2m(self, chunk_start: int, nodes: NodeArray) -> np.ndarray:
        """Bulk-back fully unmapped 2MB chunks as huge pages.

        ``nodes[i]`` is the home node of chunk ``chunk_start + i``.
        Like the fault path, each chunk falls back to 4KB pages when no
        contiguous 2MB block is available anywhere (THP's allocation
        under fragmentation); on a fresh allocator the fallback never
        triggers and the mapping is bitwise what it always was.
        Returns a boolean array: ``True`` where the chunk was backed
        huge, ``False`` where it fell back to base pages.
        """
        nodes = np.asarray(nodes, dtype=np.int8)
        end = chunk_start + nodes.size
        if chunk_start < 0 or end > self.n_chunks_2m:
            raise MappingError("pattern outside the address space")
        if nodes.size == 0:
            return np.zeros(0, dtype=bool)
        if not self._chunk_fits(end - 1):
            raise MappingError("trailing chunk extends past the address space")
        if np.any(nodes < 0) or np.any(nodes >= self.n_nodes):
            raise MappingError("pattern contains invalid node ids")
        chunks = np.arange(chunk_start, end)
        if np.any(self.huge[chunks]) or np.any(self.mapped_count_2m[chunks] != 0):
            raise MappingError("pattern overlaps existing mappings")
        backed = np.ones(nodes.size, dtype=bool)
        for i, (chunk, node) in enumerate(zip(chunks, nodes)):
            target = self._alloc_node_for(int(node), huge=True)
            if self.phys[target].can_alloc_huge():
                self._back_huge(int(chunk), target)
            else:
                target = self._alloc_node_for(int(node), huge=False)
                granules = np.arange(
                    int(chunk) << SHIFT_2M,
                    (int(chunk) + 1) << SHIFT_2M,
                    dtype=np.int64,
                )
                self._map_small(granules, target)
                backed[i] = False
        return backed

    def map_range_1g(
        self, start_granule: Pages4K, n_granules: Pages4K, node: NodeId
    ) -> FaultStats:
        """Back a range with 1GB pages (hugetlbfs-style pre-allocation).

        The range must be 1GB-aligned and 1GB-sized and fully unmapped.
        """
        if start_granule % GRANULES_PER_1G != 0 or n_granules % GRANULES_PER_1G != 0:
            raise MappingError("1GB mappings must be 1GB-aligned and -sized")
        end = start_granule + n_granules
        if end > self.n_granules:
            raise MappingError("1GB mapping outside the address space")
        stats = FaultStats()
        for gchunk in range(start_granule >> SHIFT_1G, end >> SHIFT_1G):
            if self.giga[gchunk]:
                continue
            span = slice(gchunk << SHIFT_1G, (gchunk + 1) << SHIFT_1G)
            chunk_lo = (gchunk << SHIFT_1G) >> SHIFT_2M
            chunk_hi = ((gchunk + 1) << SHIFT_1G) >> SHIFT_2M
            if (
                np.any(self.node4k[span] >= 0)
                or np.any(self.huge[chunk_lo:chunk_hi])
            ):
                raise MappingError("1GB mapping overlaps existing mappings")
            block = self.phys[node].alloc_giga()
            self.giga[gchunk] = True
            self.node1g[gchunk] = node
            self._block1g[gchunk] = block
            stats.faults_1g += 1
        if stats.faults_1g:
            self._bump_version()
        return stats

    # ------------------------------------------------------------------
    # Splitting, promotion, migration
    # ------------------------------------------------------------------
    def split_chunk(self, chunk: int) -> None:
        """Demote a 2MB page into 512 4KB pages on the same node.

        Physically the data does not move; the huge block's frames are
        handed to the node's small-frame pool.
        """
        if not self.huge[chunk]:
            raise MappingError(f"2MB chunk {chunk} is not huge-backed")
        if self.replicated_2m[chunk]:
            self.unreplicate_backing(chunk + BACKING_ID_2M_OFFSET)
        node = int(self.node2m[chunk])
        node_mem = self.phys[node]
        node_mem.free_huge(int(self._block2m[chunk]))
        node_mem.alloc_small(GRANULES_PER_2M)
        self.huge[chunk] = False
        self.node2m[chunk] = -1
        self._block2m[chunk] = -1
        span = slice(chunk << SHIFT_2M, (chunk + 1) << SHIFT_2M)
        self.node4k[span] = node
        self.mapped_count_2m[chunk] = GRANULES_PER_2M
        self._bump_version()

    def split_gchunk(self, gchunk: int) -> None:
        """Demote a 1GB page into 4KB pages on the same node."""
        if not self.giga[gchunk]:
            raise MappingError(f"1GB chunk {gchunk} is not giga-backed")
        node = int(self.node1g[gchunk])
        node_mem = self.phys[node]
        node_mem.free_giga(int(self._block1g[gchunk]))
        node_mem.alloc_small(GRANULES_PER_1G)
        self.giga[gchunk] = False
        self.node1g[gchunk] = -1
        self._block1g[gchunk] = -1
        span = slice(gchunk << SHIFT_1G, (gchunk + 1) << SHIFT_1G)
        self.node4k[span] = node
        chunk_lo = (gchunk << SHIFT_1G) >> SHIFT_2M
        chunk_hi = ((gchunk + 1) << SHIFT_1G) >> SHIFT_2M
        self.mapped_count_2m[chunk_lo:chunk_hi] = GRANULES_PER_2M
        self._bump_version()

    def collapse_chunk(self, chunk: int, node: Optional[NodeId] = None) -> bool:
        """Promote 512 mapped 4KB pages into one 2MB page (khugepaged).

        ``node`` defaults to the plurality node of the constituent
        pages.  Returns False (without changes) when the chunk is not
        fully 4KB-mapped or no huge block is available on the target.
        """
        if self.huge[chunk] or self.mapped_count_2m[chunk] != GRANULES_PER_2M:
            return False
        if self.collapse_blocked[chunk]:
            return False
        if not self._chunk_fits(chunk):
            return False
        span = slice(chunk << SHIFT_2M, (chunk + 1) << SHIFT_2M)
        if np.any(self.replicated_4k[span]):
            return False
        nodes = self.node4k[span]
        counts = np.bincount(nodes.astype(np.int64), minlength=self.n_nodes)
        if node is None:
            node = int(np.argmax(counts))
        if not self.phys[node].can_alloc_huge():
            return False
        block = self.phys[node].alloc_huge()
        for src, count in enumerate(counts):
            if count:
                self.phys[src].free_small(int(count))
        self.huge[chunk] = True
        self.node2m[chunk] = node
        self._block2m[chunk] = block
        self.node4k[span] = -1
        self.mapped_count_2m[chunk] = 0
        self._bump_version()
        return True

    def migrate_backing(self, backing_id: int, dst_node: NodeId) -> Bytes:
        """Migrate one backing page to ``dst_node``; returns bytes moved.

        Returns 0 when the page is already on the destination or the
        destination cannot hold it (migration is then skipped, matching
        the kernel's best-effort behaviour).
        """
        if not 0 <= dst_node < self.n_nodes:
            raise MappingError(f"destination node {dst_node} out of range")
        kind = self.backing_id_kind(backing_id)
        if kind is PageSize.SIZE_4K:
            granule = backing_id
            src = int(self.node4k[granule])
            if src < 0:
                raise MappingError(f"granule {granule} is not 4KB-mapped")
            if self.replicated_4k[granule]:
                return 0  # already local everywhere
            if src == dst_node:
                return 0
            if self.phys[dst_node].free_bytes < PAGE_4K:
                return 0
            self.phys[dst_node].alloc_small(1)
            self.phys[src].free_small(1)
            self.node4k[granule] = dst_node
            self._bump_version()
            return PAGE_4K
        if kind is PageSize.SIZE_2M:
            chunk = backing_id - BACKING_ID_2M_OFFSET
            if not self.huge[chunk]:
                raise MappingError(f"2MB chunk {chunk} is not huge-backed")
            if self.replicated_2m[chunk]:
                return 0  # already local everywhere
            src = int(self.node2m[chunk])
            if src == dst_node:
                return 0
            if not self.phys[dst_node].can_alloc_huge():
                return 0
            block = self.phys[dst_node].alloc_huge()
            self.phys[src].free_huge(int(self._block2m[chunk]))
            self.node2m[chunk] = dst_node
            self._block2m[chunk] = block
            self._bump_version()
            return int(PageSize.SIZE_2M)
        gchunk = backing_id - BACKING_ID_1G_OFFSET
        if not self.giga[gchunk]:
            raise MappingError(f"1GB chunk {gchunk} is not giga-backed")
        src = int(self.node1g[gchunk])
        if src == dst_node:
            return 0
        if not self.phys[dst_node].can_alloc_giga():
            return 0
        block = self.phys[dst_node].alloc_giga()
        self.phys[src].free_giga(int(self._block1g[gchunk]))
        self.node1g[gchunk] = dst_node
        self._block1g[gchunk] = block
        self._bump_version()
        return int(PageSize.SIZE_1G)

    #: 4KB entries :meth:`migrate_backings` scans ahead in one array step.
    _SCAN_4K = 1024

    def migrate_backings(
        self,
        backing_ids: np.ndarray,
        dst_nodes: NodeArray,
        budget_bytes: Bytes,
        skip: Optional[np.ndarray] = None,
    ) -> Tuple[BytesArray, int]:
        """Migrate a batch of backing pages in order, within a byte budget.

        Walks the batch once with :meth:`migrate_backing`'s per-page
        rules: an entry moves nothing when its page is replicated,
        already on the destination, or the destination cannot hold it.
        Before each entry the walk stops if the bytes moved so far have
        spent ``budget_bytes``, so the migration that spends the budget
        is the last one.  Entries flagged in ``skip`` are passed over.
        Returns the bytes each entry moved and how many entries the walk
        reached.

        Runs of 4KB pages are applied with array operations: every
        node's small-frame pool follows a prefix sum, and only an entry
        at which a pool carves or returns a block (or the destination is
        full) goes through :meth:`migrate_backing`, as every 2MB and 1GB
        entry does.  The allocators thus take exactly the steps of the
        per-page sequence, in the same order.

        Raises :class:`MappingError`, before changing anything, when an
        id repeats, an entry not skipped is not live, or a destination
        is out of range.
        """
        ids = np.asarray(backing_ids, dtype=np.int64)
        dst = np.asarray(dst_nodes, dtype=np.int64)
        n = ids.size
        if ids.ndim != 1 or dst.shape != ids.shape:
            raise MappingError("backing_ids and dst_nodes must align")
        skip = np.zeros(n, dtype=bool) if skip is None else np.asarray(skip, dtype=bool)
        if skip.shape != ids.shape:
            raise MappingError("skip must align with backing_ids")
        moved = np.zeros(n, dtype=np.int64)
        if n == 0:
            return moved, 0
        if np.any((dst < 0) | (dst >= self.n_nodes)):
            raise MappingError("destination node out of range")
        ordered = np.sort(ids)
        if np.any(ordered[1:] == ordered[:-1]):
            raise MappingError("a batch names the same backing page twice")
        if not np.all(self.backings_live(ids) | skip):
            raise MappingError("a batch names a backing id that is not live")
        large = np.flatnonzero(ids >= BACKING_ID_2M_OFFSET)
        remaining = int(budget_bytes)
        i = 0
        while i < n and remaining > 0:
            if ids[i] >= BACKING_ID_2M_OFFSET:
                if not skip[i]:
                    moved[i] = self.migrate_backing(int(ids[i]), int(dst[i]))
                    remaining -= int(moved[i])
                i += 1
                continue
            nxt = np.searchsorted(large, i)
            stop = int(large[nxt]) if nxt < large.size else n
            i, remaining = self._migrate_4k_run(
                ids, dst, skip, moved, i, stop, remaining
            )
        return moved, i

    def _migrate_4k_run(
        self,
        ids: np.ndarray,
        dst: np.ndarray,
        skip: np.ndarray,
        moved: np.ndarray,
        start: int,
        stop: int,
        remaining: Bytes,
    ) -> Tuple[int, Bytes]:
        """:meth:`migrate_backings` over the 4KB entries ``start:stop``.

        Fills ``moved`` and returns the next entry to visit and the
        budget left.
        """
        granules = ids[start:stop]
        targets = dst[start:stop]
        src = self.node4k[granules].astype(np.int64)
        going = (src != targets) & ~self.replicated_4k[granules] & ~skip[start:stop]
        # Each moving entry frees a frame on its source node (+1) and
        # allocates one on its destination (-1).
        nodes = np.arange(self.n_nodes)[:, None]
        steps = ((src == nodes) & going).astype(np.int8) - ((targets == nodes) & going)
        spent = np.cumsum(going) * PAGE_4K
        pos, end = 0, stop - start
        while pos < end and remaining > 0:
            window = slice(pos, min(end, pos + self._SCAN_4K))
            # Quiet entries move one frame without any pool acting.
            quiet = self.phys.quiet_small_prefix(steps[:, window])
            # The quiet entry whose move spends the budget is the last.
            before = int(spent[pos - 1]) if pos else 0
            cut = int(np.searchsorted(spent[window], before + remaining))
            done = pos + min(quiet, cut + 1)
            quiet_bytes = (int(spent[done - 1]) if done else 0) - before
            if quiet_bytes:
                sel = going[pos:done]
                self.node4k[granules[pos:done][sel]] = (
                    targets[pos:done][sel].astype(np.int8)
                )
                self.phys.settle_small(steps[:, pos:done].sum(axis=1))
                moved[start + pos:start + done][sel] = PAGE_4K
                remaining -= quiet_bytes
                self._bump_version()
            event = done == pos + quiet < window.stop
            pos = done
            if event and remaining > 0:
                # A pool carves or returns a block here, or the
                # destination is full: the scalar path takes the step.
                entry = start + pos
                moved[entry] = self.migrate_backing(
                    int(ids[entry]), int(dst[entry])
                )
                remaining -= int(moved[entry])
                pos += 1
        return start + pos, remaining

    def migrate_granules(self, granules: Pages4KArray, dst_nodes: NodeArray) -> Bytes:
        """Bulk-migrate 4KB-mapped granules; returns bytes moved.

        Granules must currently be 4KB-mapped.  Used after splitting a
        hot page to interleave its constituents.
        """
        g = np.asarray(granules, dtype=np.int64)
        dst = np.asarray(dst_nodes, dtype=np.int64)
        if g.shape != dst.shape:
            raise MappingError("granules and dst_nodes must align")
        src = self.node4k[g].astype(np.int64)
        if np.any(src < 0):
            raise MappingError("bulk migration requires 4KB-mapped granules")
        moving = (src != dst) & ~self.replicated_4k[g]
        if not np.any(moving):
            return 0
        g, src, dst = g[moving], src[moving], dst[moving]
        for node in range(self.n_nodes):
            incoming = int(np.count_nonzero(dst == node))
            if incoming:
                self.phys[node].alloc_small(incoming)
            outgoing = int(np.count_nonzero(src == node))
            if outgoing:
                self.phys[node].free_small(outgoing)
        self.node4k[g] = dst.astype(np.int8)
        self._bump_version()
        return int(g.size) * PAGE_4K

    # ------------------------------------------------------------------
    # Reclaim and teardown
    # ------------------------------------------------------------------
    def reclaim_granules(self, granules: Pages4KArray) -> Bytes:
        """Unmap 4KB-mapped granules and return their frames; bytes freed.

        Models memory-pressure reclaim (the tenant-scoped
        ``ReclaimPages`` decision): only plain 4KB mappings are
        eligible — granules that are unmapped, covered by a larger
        backing page, or replicated are silently skipped, matching the
        kernel's behaviour of splitting/collapsing before evicting.
        Reclaimed granules fault back in on the next touch.
        """
        g = np.unique(np.asarray(granules, dtype=np.int64))
        if g.size == 0:
            return 0
        if int(g[0]) < 0 or int(g[-1]) >= self.n_granules:
            raise MappingError("reclaim outside the address space")
        eligible = (self.node4k[g] >= 0) & ~self.replicated_4k[g]
        g = g[eligible]
        if g.size == 0:
            return 0
        nodes = self.node4k[g].astype(np.int64)
        counts = np.bincount(nodes, minlength=self.n_nodes)
        for node, count in enumerate(counts):
            if count:
                self.phys[node].free_small(int(count))
        self.node4k[g] = -1
        chunk_ids, chunk_counts = np.unique(g >> SHIFT_2M, return_counts=True)
        self.mapped_count_2m[chunk_ids] -= chunk_counts.astype(np.int32)
        freed = int(g.size) * PAGE_4K
        self.reclaimed_bytes += freed
        self._bump_version()
        return freed

    def release_all(self) -> Bytes:
        """Tear down every mapping and return all frames (process exit).

        Collapses every replica, frees every 4KB/2MB/1GB backing, and
        resets the space to its freshly-constructed (empty) state.
        Returns the mapped bytes released.  The multi-tenant host calls
        this when a tenant exits, so the frames age the shared allocator
        that later tenants draw from.
        """
        for granule in np.flatnonzero(self.replicated_4k):
            self.unreplicate_backing(int(granule))
        for backing_id in sorted(list(self._replica_blocks)):
            self.unreplicate_backing(backing_id)
        released = self.mapped_bytes()
        mapped4k = self.node4k[self.node4k >= 0].astype(np.int64)
        counts = np.bincount(mapped4k, minlength=self.n_nodes)
        for node, count in enumerate(counts):
            if count:
                self.phys[node].free_small(int(count))
        for chunk in np.flatnonzero(self.huge):
            self.phys[int(self.node2m[chunk])].free_huge(
                int(self._block2m[chunk])
            )
        for gchunk in np.flatnonzero(self.giga):
            self.phys[int(self.node1g[gchunk])].free_giga(
                int(self._block1g[gchunk])
            )
        self.node4k[:] = -1
        self.huge[:] = False
        self.node2m[:] = -1
        self._block2m[:] = -1
        self.collapse_blocked[:] = False
        self.mapped_count_2m[:] = 0
        self.giga[:] = False
        self.node1g[:] = -1
        self._block1g[:] = -1
        self.reclaimed_bytes += released
        self._bump_version()
        return released

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def block_collapse(self, chunk: int) -> None:
        """madvise(MADV_NOHUGEPAGE): prevent khugepaged re-collapse.

        Carrefour-LP marks ranges it deliberately demoted so the
        promotion scanner does not silently undo the split.
        """
        self.collapse_blocked[chunk] = True

    def clear_collapse_blocks(self) -> None:
        """Re-allow promotion everywhere (MADV_HUGEPAGE).

        Called when the conservative component decides large pages are
        worth re-creating.
        """
        self.collapse_blocked[:] = False

    def page_table_bytes(self) -> Bytes:
        """Estimated size of the process's live page tables.

        One 4KB PTE page per 2MB chunk holding 4KB entries, plus one
        PMD page per 1GB region with live PTE pages or 2MB entries;
        the handful of upper-level pages is noise at these footprints.
        Used to cost Mitosis-style page-table replication.
        """
        pte_chunks = np.flatnonzero(self.mapped_count_2m > 0)
        huge_chunks = np.flatnonzero(self.huge)
        pmd_regions = np.union1d(
            pte_chunks >> (SHIFT_1G - SHIFT_2M),
            huge_chunks >> (SHIFT_1G - SHIFT_2M),
        )
        return (int(pte_chunks.size) + int(pmd_regions.size)) * PAGE_4K

    def mapped_bytes(self) -> Bytes:
        """Total mapped bytes at any granularity."""
        small = int(np.count_nonzero(self.node4k >= 0)) * PAGE_4K
        huge = int(np.count_nonzero(self.huge)) * int(PageSize.SIZE_2M)
        giga = int(np.count_nonzero(self.giga)) * int(PageSize.SIZE_1G)
        return small + huge + giga

    def page_counts(self) -> Dict[PageSize, int]:
        """Number of mapped pages per size class."""
        return {
            PageSize.SIZE_4K: int(np.count_nonzero(self.node4k >= 0)),
            PageSize.SIZE_2M: int(np.count_nonzero(self.huge)),
            PageSize.SIZE_1G: int(np.count_nonzero(self.giga)),
        }

    def bytes_per_node(self) -> BytesArray:
        """Mapped bytes per home node."""
        out = np.zeros(self.n_nodes, dtype=np.int64)
        mapped4k = self.node4k[self.node4k >= 0].astype(np.int64)
        out += np.bincount(mapped4k, minlength=self.n_nodes) * PAGE_4K
        huge_nodes = self.node2m[self.huge].astype(np.int64)
        out += np.bincount(huge_nodes, minlength=self.n_nodes) * int(PageSize.SIZE_2M)
        giga_nodes = self.node1g[self.giga].astype(np.int64)
        out += np.bincount(giga_nodes, minlength=self.n_nodes) * int(PageSize.SIZE_1G)
        return out

    def check_invariants(self) -> None:
        """Raise if mapping invariants are violated (test helper)."""
        for chunk in np.flatnonzero(self.huge):
            span = slice(int(chunk) << SHIFT_2M, (int(chunk) + 1) << SHIFT_2M)
            if np.any(self.node4k[span] >= 0):
                raise AssertionError(f"huge chunk {chunk} has 4KB mappings")
            if self.mapped_count_2m[chunk] != 0:
                raise AssertionError(f"huge chunk {chunk} has nonzero mapped count")
            if self.node2m[chunk] < 0:
                raise AssertionError(f"huge chunk {chunk} has no node")
        for gchunk in np.flatnonzero(self.giga):
            chunk_lo = (int(gchunk) << SHIFT_1G) >> SHIFT_2M
            chunk_hi = ((int(gchunk) + 1) << SHIFT_1G) >> SHIFT_2M
            if np.any(self.huge[chunk_lo:chunk_hi]):
                raise AssertionError(f"1GB chunk {gchunk} overlaps 2MB pages")
        counted = np.zeros(self.n_chunks_2m, dtype=np.int32)
        mapped = np.flatnonzero(self.node4k >= 0)
        if mapped.size:
            ids, counts = np.unique(mapped >> SHIFT_2M, return_counts=True)
            counted[ids] = counts.astype(np.int32)
        if not np.array_equal(counted, self.mapped_count_2m):
            raise AssertionError("mapped_count_2m out of sync")
        # Replication accounting.
        if np.any(self.replicated_4k & (self.node4k < 0)):
            raise AssertionError("replicated granule without a mapping")
        if np.any(self.replicated_2m & ~self.huge):
            raise AssertionError("replicated 2MB chunk is not huge-backed")
        expected_replicas = (
            int(np.count_nonzero(self.replicated_4k)) * (self.n_nodes - 1) * PAGE_4K
            + int(np.count_nonzero(self.replicated_2m))
            * (self.n_nodes - 1)
            * int(PageSize.SIZE_2M)
        )
        if expected_replicas != self.replica_bytes:
            raise AssertionError("replica byte counter out of sync")


def split_backing_page(
    address_space: AddressSpace, page_id: int, block_collapse: bool = True
) -> int:
    """Split one 2MB or 1GB backing page into 4KB pages.

    Returns the number of 2MB-equivalents split (1 for a 2MB page, 512
    for a 1GB page) for cost accounting; 0 when the id names a 4KB page.

    With ``block_collapse`` (the default for policy-driven splits) the
    demoted range is madvised NOHUGEPAGE so khugepaged does not
    immediately undo the decision; the conservative component clears
    the marks when it re-enables promotion.
    """
    kind = AddressSpace.backing_id_kind(page_id)
    if kind is PageSize.SIZE_4K:
        return 0
    if kind is PageSize.SIZE_2M:
        chunk = page_id - BACKING_ID_2M_OFFSET
        address_space.split_chunk(chunk)
        if block_collapse:
            address_space.block_collapse(chunk)
        return 1
    gchunk = page_id - BACKING_ID_1G_OFFSET
    address_space.split_gchunk(gchunk)
    if block_collapse:
        base = gchunk * CHUNKS_2M_PER_1G
        for chunk in range(base, base + CHUNKS_2M_PER_1G):
            address_space.block_collapse(chunk)
    return 512
