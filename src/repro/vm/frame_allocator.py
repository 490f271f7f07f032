"""Physical memory: a per-node buddy frame allocator.

Each NUMA node's DRAM is managed by a :class:`BuddyAllocator` over 4KB
frames (order 0) up to 1GB blocks (order 18), exactly like the Linux
page allocator's order hierarchy.  Huge-page allocation succeeds only
when a sufficiently large contiguous block exists, which is how THP's
fallback-to-4KB behaviour and fragmentation sensitivity arise.

For scattered base pages, :class:`NodeMemory` adds a small-frame pool
that carves order-9 (2MB) buddy blocks and hands out 4KB frames from
them by count.  This amortises allocator work (one buddy operation per
512 base-page operations) while keeping capacity accounting exact; the
identity of individual 4KB frames is not tracked because nothing in the
simulation depends on physical frame numbers — only on the *node* and
the *page size*.  The pool returns blocks to the buddy allocator once
it holds at least a full block of free frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

import numpy as np

from repro.errors import AllocationError, ConfigurationError
from repro.units import Bytes, NodeId, Pages4K
from repro.vm.layout import ORDER_1G, ORDER_2M, PAGE_4K


class BuddyAllocator:
    """A classic binary buddy allocator over a frame index space.

    Frames are indexed ``0 .. total_frames-1``.  A block of order ``k``
    covers ``2**k`` frames and is aligned to a ``2**k`` boundary.
    """

    def __init__(self, total_frames: int, max_order: int = ORDER_1G) -> None:
        if total_frames <= 0:
            raise ConfigurationError("total_frames must be positive")
        if not 0 <= max_order <= 30:
            raise ConfigurationError("max_order out of supported range")
        self.total_frames = total_frames
        self.max_order = max_order
        self._free: List[Set[int]] = [set() for _ in range(max_order + 1)]
        self._allocated: Dict[int, int] = {}  # block start -> order
        self._free_frames = 0
        self._seed_free_lists()

    def _seed_free_lists(self) -> None:
        """Greedily cover [0, total_frames) with maximal aligned blocks."""
        start = 0
        remaining = self.total_frames
        while remaining > 0:
            order = min(self.max_order, remaining.bit_length() - 1)
            # The block must also be aligned to its own size.
            while order > 0 and start % (1 << order) != 0:
                order -= 1
            self._free[order].add(start)
            self._free_frames += 1 << order
            start += 1 << order
            remaining -= 1 << order

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def free_frames(self) -> Pages4K:
        """Number of free 4KB frames."""
        return self._free_frames

    @property
    def allocated_frames(self) -> Pages4K:
        """Number of allocated 4KB frames."""
        return self.total_frames - self._free_frames

    def free_blocks(self, order: int) -> int:
        """Number of free blocks currently on the given order's list."""
        self._check_order(order)
        return len(self._free[order])

    def largest_free_order(self) -> int:
        """Largest order with a free block; -1 when memory is exhausted."""
        for order in range(self.max_order, -1, -1):
            if self._free[order]:
                return order
        return -1

    def can_alloc(self, order: int) -> bool:
        """Whether an allocation of the given order would succeed."""
        self._check_order(order)
        return any(self._free[k] for k in range(order, self.max_order + 1))

    def _check_order(self, order: int) -> None:
        if not 0 <= order <= self.max_order:
            raise ConfigurationError(
                f"order {order} out of range 0..{self.max_order}"
            )

    # ------------------------------------------------------------------
    # Allocation / free
    # ------------------------------------------------------------------
    def alloc(self, order: int) -> int:
        """Allocate a block; returns its start frame index.

        Raises :class:`AllocationError` when no block of the requested
        order (or larger, to split) is free — i.e. under fragmentation
        or exhaustion.
        """
        self._check_order(order)
        source = order
        while source <= self.max_order and not self._free[source]:
            source += 1
        if source > self.max_order:
            raise AllocationError(
                f"no free block of order >= {order} "
                f"({self._free_frames} frames free)"
            )
        start = self._free[source].pop()
        # Split down to the requested order, freeing the upper buddies.
        while source > order:
            source -= 1
            buddy = start + (1 << source)
            self._free[source].add(buddy)
        self._allocated[start] = order
        self._free_frames -= 1 << order
        return start

    def free(self, start: int, order: int) -> None:
        """Free a previously allocated block, merging with free buddies."""
        self._check_order(order)
        recorded = self._allocated.pop(start, None)
        if recorded is None:
            raise AllocationError(f"block at frame {start} is not allocated")
        if recorded != order:
            self._allocated[start] = recorded
            raise AllocationError(
                f"block at frame {start} was allocated with order {recorded}, "
                f"not {order}"
            )
        self._free_frames += 1 << order
        while order < self.max_order:
            buddy = start ^ (1 << order)
            if buddy not in self._free[order]:
                break
            # Merging past the end of an irregular (non-power-of-two)
            # memory size is impossible because such buddies were never
            # seeded as free; the membership test above covers it.
            self._free[order].remove(buddy)
            start = min(start, buddy)
            order += 1
        self._free[order].add(start)

    def check_accounting(self) -> None:
        """Cheap counter consistency check (safe to run every epoch).

        Verifies the free-frame counter against the free lists and that
        allocated + free covers the node exactly, without the O(frames)
        overlap scan of :meth:`check_invariants`.
        """
        counted = sum(
            len(blocks) << order for order, blocks in enumerate(self._free)
        )
        if counted != self._free_frames:
            raise AssertionError("free-frame counter out of sync with lists")
        allocated = sum(1 << order for order in sorted(self._allocated.values()))
        if allocated + self._free_frames != self.total_frames:
            raise AssertionError("allocated + free != total frames")

    def check_invariants(self) -> None:
        """Raise if internal bookkeeping is inconsistent (test helper)."""
        self.check_accounting()
        seen: Set[int] = set()
        for order, blocks in enumerate(self._free):
            for start in blocks:
                if start % (1 << order) != 0:
                    raise AssertionError(f"misaligned free block {start}@{order}")
                span = set(range(start, start + (1 << order)))
                if seen & span:
                    raise AssertionError("overlapping free blocks")
                seen |= span


@dataclass
class PoolStats:
    """Small-frame pool statistics for one node (debug/test aid)."""

    free_frames_in_pool: int
    reserved_blocks: int


class NodeMemory:
    """One NUMA node's DRAM: buddy allocator plus a small-frame pool."""

    def __init__(
        self, node_id: NodeId, dram_bytes: Bytes, max_order: int = ORDER_1G
    ) -> None:
        if dram_bytes < PAGE_4K:
            raise ConfigurationError("a node needs at least one frame of DRAM")
        self.node_id = node_id
        self.dram_bytes = dram_bytes
        self.buddy = BuddyAllocator(dram_bytes // PAGE_4K, max_order=max_order)
        self._pool_free = 0
        self._pool_blocks: List[int] = []
        self._pool_carves: List[int] = []
        self._fragmentation_pins: List[int] = []
        #: Bytes held by explicit :meth:`inject_fragmentation` pins —
        #: allocator usage not backed by any mapping, which the runtime
        #: page-conservation invariant must account for separately.
        self.test_pinned_bytes: Bytes = 0

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> Bytes:
        """Bytes allocated to pages (pool-held free frames do not count)."""
        return (self.buddy.allocated_frames - self._pool_free) * PAGE_4K

    @property
    def free_bytes(self) -> Bytes:
        """Bytes available for new allocations (buddy free + pool free)."""
        return (self.buddy.free_frames + self._pool_free) * PAGE_4K

    def pool_stats(self) -> PoolStats:
        """Current small-frame pool statistics."""
        return PoolStats(self._pool_free, len(self._pool_blocks))

    # ------------------------------------------------------------------
    # Small (4KB) frames — pooled, count-based
    # ------------------------------------------------------------------
    def alloc_small(self, n: Pages4K) -> None:
        """Allocate ``n`` 4KB frames (identity untracked)."""
        if n < 0:
            raise ConfigurationError("frame count must be non-negative")
        while self._pool_free < n:
            # Prefer carving 2MB blocks; fall back to whatever is left.
            order = ORDER_2M if self.buddy.can_alloc(ORDER_2M) else (
                self.buddy.largest_free_order()
            )
            if order < 0:
                raise AllocationError(
                    f"node {self.node_id}: out of memory allocating {n} frames"
                )
            start = self.buddy.alloc(order)
            if order == ORDER_2M:
                self._pool_blocks.append(start)
            else:
                # Odd-order carve (rare path).  These frames belong to
                # the pool's accounting, so they must never be released
                # by release_fragmentation.
                self._pool_carves.append((start << 6) | order)
            self._pool_free += 1 << order
        self._pool_free -= n

    def free_small(self, n: Pages4K) -> None:
        """Free ``n`` 4KB frames back to the pool."""
        if n < 0:
            raise ConfigurationError("frame count must be non-negative")
        self._pool_free += n
        # Return whole blocks to the buddy while the pool is over-full.
        while self._pool_blocks and self._pool_free >= (1 << ORDER_2M):
            start = self._pool_blocks.pop()
            self.buddy.free(start, ORDER_2M)
            self._pool_free -= 1 << ORDER_2M

    def settle_small(self, net: Pages4K) -> None:
        """Apply a quiet run's frees minus allocations in one step.

        See :meth:`PhysicalMemory.quiet_small_prefix`: over a quiet run
        of single-frame allocs and frees only the pool counter moves.
        """
        if self._pool_free + net < 0:
            raise AllocationError(
                f"node {self.node_id}: small-frame pool would go negative"
            )
        self._pool_free += net

    # ------------------------------------------------------------------
    # Huge (2MB) and giga (1GB) pages — identity-tracked buddy blocks
    # ------------------------------------------------------------------
    def can_alloc_huge(self) -> bool:
        """Whether a 2MB page could be allocated right now."""
        return self.buddy.can_alloc(ORDER_2M)

    def alloc_huge(self) -> int:
        """Allocate one 2MB page; returns the block's start frame."""
        return self.buddy.alloc(ORDER_2M)

    def free_huge(self, start: int) -> None:
        """Free a 2MB page previously returned by :meth:`alloc_huge`."""
        self.buddy.free(start, ORDER_2M)

    def can_alloc_giga(self) -> bool:
        """Whether a 1GB page could be allocated right now."""
        return self.buddy.can_alloc(ORDER_1G)

    def alloc_giga(self) -> int:
        """Allocate one 1GB page; returns the block's start frame."""
        return self.buddy.alloc(ORDER_1G)

    def free_giga(self, start: int) -> None:
        """Free a 1GB page previously returned by :meth:`alloc_giga`."""
        self.buddy.free(start, ORDER_1G)

    # ------------------------------------------------------------------
    # Test support
    # ------------------------------------------------------------------
    def inject_fragmentation(self, n_blocks: int, order: int = 0) -> None:
        """Pin ``n_blocks`` blocks of the given order to fragment memory.

        Used by tests and examples to exercise THP's fallback path:
        after pinning enough scattered small blocks, no order-9 block
        remains and huge allocations fail.
        """
        for _ in range(n_blocks):
            start = self.buddy.alloc(order)
            self._fragmentation_pins.append((start << 6) | order)
            self.test_pinned_bytes += (1 << order) * PAGE_4K

    def pin_fragmented(self, target_bytes: Bytes) -> Bytes:
        """Pin ~``target_bytes`` so the *free* remainder is fragmented.

        Sequential buddy allocations return adjacent blocks, so naive
        pinning leaves the unpinned memory contiguous and THP-friendly.
        This helper instead holds both 1MB halves of a 2MB block and
        then releases the upper half: the freed halves can never merge
        back (their buddies stay pinned), so every byte pinned this way
        destroys two bytes of huge-page contiguity — the occupancy
        profile of a long-running host rather than a fresh boot.  Pins
        are accounted as :attr:`test_pinned_bytes` like
        :meth:`inject_fragmentation` and released the same way.
        Returns the bytes actually pinned.
        """
        if target_bytes < 0:
            raise ConfigurationError("target_bytes must be non-negative")
        half_order = ORDER_2M - 1
        half_bytes = (1 << half_order) * PAGE_4K
        # Phase 1: hold half-blocks worth twice the target, breaking a
        # proportional share of the node's 2MB blocks.
        held: List[int] = []
        while (
            len(held) * half_bytes < 2 * target_bytes
            and self.buddy.can_alloc(half_order)
        ):
            held.append(self.buddy.alloc(half_order))
        # Phase 2: release the upper half of every fully-held pair.
        held_set = set(held)
        pinned: Bytes = 0
        for start in held:
            upper = bool(start & (1 << half_order))
            if upper and (start ^ (1 << half_order)) in held_set:
                self.buddy.free(start, half_order)
            else:
                self._fragmentation_pins.append((start << 6) | half_order)
                pinned += half_bytes
        # Phase 3: top up from the now-scattered free halves (re-pinning
        # them cannot restore contiguity — their buddies stay pinned).
        while (
            pinned + half_bytes <= target_bytes
            and self.buddy.can_alloc(half_order)
        ):
            start = self.buddy.alloc(half_order)
            self._fragmentation_pins.append((start << 6) | half_order)
            pinned += half_bytes
        # Half-block pins so far; inject_fragmentation accounts its own.
        self.test_pinned_bytes += pinned
        # Phase 4: sub-1MB remainder as individual 4KB frames.  Phase 2
        # keeps unpaired upper halves, so ``pinned`` may already exceed
        # the target by a fraction of a half-block.
        remainder = min(
            max(0, target_bytes - pinned) // PAGE_4K,
            self.buddy.free_frames,
        )
        if remainder > 0:
            self.inject_fragmentation(remainder, order=0)
            pinned += remainder * PAGE_4K
        return pinned

    def release_fragmentation(self) -> None:
        """Release all pins created by :meth:`inject_fragmentation`."""
        for token in self._fragmentation_pins:
            self.buddy.free(token >> 6, token & 0x3F)
        self._fragmentation_pins.clear()
        self.test_pinned_bytes = 0


class PhysicalMemory:
    """All nodes' memory, indexed by node id."""

    def __init__(self, dram_bytes_per_node: List[int]) -> None:
        if not dram_bytes_per_node:
            raise ConfigurationError("at least one node required")
        self.nodes = [
            NodeMemory(node_id, dram) for node_id, dram in enumerate(dram_bytes_per_node)
        ]

    @classmethod
    def for_topology(cls, topology) -> "PhysicalMemory":
        """Build physical memory matching a :class:`NumaTopology`."""
        return cls([node.dram_bytes for node in topology.nodes])

    def __getitem__(self, node: int) -> NodeMemory:
        return self.nodes[node]

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def total_used_bytes(self) -> Bytes:
        """Bytes in use across all nodes."""
        return sum(node.used_bytes for node in self.nodes)

    @property
    def total_free_bytes(self) -> Bytes:
        """Bytes free across all nodes."""
        return sum(node.free_bytes for node in self.nodes)

    def quiet_small_prefix(self, steps: np.ndarray) -> int:
        """How many single-frame steps run before some node's pool acts.

        ``steps[n, j]`` is node ``n``'s part in step ``j``: ``-1`` for
        ``alloc_small(1)``, ``+1`` for ``free_small(1)``, ``0`` for
        nothing.  Returns the length of the longest prefix in which no
        allocation finds its pool empty (a carve, or a failure on a full
        node) and no free fills a pool to a whole block while it holds
        one (a return).  Over that prefix only the pool counters move,
        so :meth:`settle_small` can apply it at once.
        """
        stats = [node.pool_stats() for node in self.nodes]
        pool = np.array([s.free_frames_in_pool for s in stats])[:, None]
        holds = np.array([s.reserved_blocks > 0 for s in stats])[:, None]
        before = pool + np.cumsum(steps, axis=1) - steps
        event = ((steps < 0) & (before < 1)) | (
            holds & (steps > 0) & (before >= (1 << ORDER_2M) - 1)
        )
        hits = np.flatnonzero(event.any(axis=0))
        return int(hits[0]) if hits.size else int(steps.shape[1])

    def settle_small(self, net: np.ndarray) -> None:
        """Apply each node's net frames (frees minus allocations) of a
        quiet prefix found by :meth:`quiet_small_prefix`."""
        for node, frames in zip(self.nodes, net.tolist()):
            if frames:
                node.settle_small(frames)

    def node_with_most_free(self, exclude: Optional[NodeId] = None) -> NodeId:
        """Node id with the most free memory (fallback allocation target)."""
        best, best_free = -1, -1
        for node in self.nodes:
            if node.node_id == exclude:
                continue
            if node.free_bytes > best_free:
                best, best_free = node.node_id, node.free_bytes
        if best < 0:
            raise AllocationError("no eligible node")
        return best
