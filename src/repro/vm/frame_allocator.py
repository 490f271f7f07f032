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

Memory pressure pins blocks for good (:meth:`NodeMemory.pin_fragmented`,
:meth:`NodeMemory.inject_fragmentation`).  A pin leaves the free lists
exactly as an allocation of the block would, but the allocator only
counts its frames and keeps no per-block record: nothing frees a pin,
and at 50% pressure a 64 GiB node holds 32,768 of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

import numpy as np

from repro._util import ceil_div
from repro.errors import AllocationError, ConfigurationError
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
        self._pinned_frames = 0  # frames held by pins, which get no record
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
    def free_frames(self) -> int:
        """Number of free 4KB frames."""
        return self._free_frames

    @property
    def allocated_frames(self) -> int:
        """Number of 4KB frames in use: allocated blocks and pins."""
        return self.total_frames - self._free_frames

    @property
    def pinned_frames(self) -> int:
        """Number of 4KB frames held by :meth:`pin_many` pins."""
        return self._pinned_frames

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
        starts = self.alloc_many(order, 1)
        if not starts:
            raise AllocationError(
                f"no free block of order >= {order} "
                f"({self._free_frames} frames free)"
            )
        return starts[0]

    def alloc_many(self, order: int, count: int) -> List[int]:
        """Allocate up to ``count`` blocks of one order, in sequence.

        Stops early when no block of the order (or larger, to split) is
        free, and returns the start frames allocated.  Every step
        performs the free-list and allocated-map operations of one
        :meth:`alloc` call, in the same order, so the allocator ends in
        exactly the state the same sequence of calls leaves.
        """
        self._check_order(order)
        starts = self._take(order, count)
        allocated = self._allocated
        for start in starts:
            allocated[start] = order
        return starts

    def free(self, start: int, order: int) -> None:
        """Free a previously allocated block, merging with free buddies."""
        self.free_many((start,), order)

    def free_many(self, starts: Iterable[int], order: int) -> None:
        """Free allocated blocks of one order, in sequence.

        Each block merges with its free buddies exactly as one
        :meth:`free` call would, so the allocator ends in the state the
        same sequence of calls leaves.  A block that is not allocated
        with this order raises :class:`AllocationError` after the
        blocks before it are freed.
        """
        self._check_order(order)
        allocated = self._allocated
        freed: List[int] = []
        try:
            for start in starts:
                recorded = allocated.pop(start, None)
                if recorded is None:
                    raise AllocationError(
                        f"block at frame {start} is not allocated"
                    )
                if recorded != order:
                    allocated[start] = recorded
                    raise AllocationError(
                        f"block at frame {start} was allocated with order "
                        f"{recorded}, not {order}"
                    )
                freed.append(start)
        finally:
            self._give(freed, order)

    def pin_many(self, order: int, count: int) -> List[int]:
        """Take up to ``count`` blocks of one order for good.

        The free lists go through exactly the steps of
        :meth:`alloc_many`, but a pin gets no per-block record: only
        :attr:`pinned_frames` counts it, so :meth:`free` refuses it and
        a node pinned to half its size keeps no entry per pin.  Returns
        the start frames pinned.
        """
        self._check_order(order)
        starts = self._take(order, count)
        self._pinned_frames += len(starts) << order
        return starts

    def unpin_many(self, starts: List[int], order: int) -> None:
        """Give back blocks :meth:`pin_many` took, in sequence.

        Each merges with its free buddies as one :meth:`free` call
        would.  Nothing records a pin, so nothing checks these: the
        caller passes only its own pins of this order.
        """
        self._check_order(order)
        self._give(starts, order)
        self._pinned_frames -= len(starts) << order

    def _take(self, order: int, count: int) -> List[int]:
        """Pop up to ``count`` blocks of one order off the free lists,
        splitting larger blocks; returns the blocks' start frames."""
        free = self._free
        top = self.max_order
        starts: List[int] = []
        for _ in range(count):
            source = order
            while source <= top and not free[source]:
                source += 1
            if source > top:
                break
            start = free[source].pop()
            # Split down to the requested order, freeing the upper buddies.
            while source > order:
                source -= 1
                free[source].add(start + (1 << source))
            starts.append(start)
        self._free_frames -= len(starts) << order
        return starts

    def _give(self, starts: List[int], order: int) -> None:
        """Put blocks of one order back on the free lists, in sequence,
        each merged with its free buddies."""
        free = self._free
        top = self.max_order
        for start in starts:
            merged = order
            while merged < top:
                buddy = start ^ (1 << merged)
                if buddy not in free[merged]:
                    break
                # Merging past the end of an irregular (non-power-of-two)
                # memory size is impossible because such buddies were
                # never seeded as free; the membership test covers it.
                free[merged].remove(buddy)
                start = min(start, buddy)
                merged += 1
            free[merged].add(start)
        self._free_frames += len(starts) << order

    def check_accounting(self) -> None:
        """Cheap counter consistency check (safe to run every epoch).

        Verifies the free-frame counter against the free lists and that
        allocated blocks, pins and free frames cover the node exactly,
        without the O(frames) overlap scan of :meth:`check_invariants`.
        Pins are a count, so the walk covers the recorded blocks alone:
        under pressure those are the tenants' pages, not the pins.
        """
        counted = sum(
            len(blocks) << order for order, blocks in enumerate(self._free)
        )
        if counted != self._free_frames:
            raise AssertionError("free-frame counter out of sync with lists")
        allocated = sum(1 << order for order in self._allocated.values())
        used = allocated + self._pinned_frames
        if used + self._free_frames != self.total_frames:
            raise AssertionError("allocated + pinned + free != total frames")


@dataclass
class PoolStats:
    """Small-frame pool statistics for one node (debug/test aid)."""

    free_frames_in_pool: int
    reserved_blocks: int


class NodeMemory:
    """One NUMA node's DRAM: buddy allocator plus a small-frame pool."""

    def __init__(
        self, node_id: int, dram_bytes: int, max_order: int = ORDER_1G
    ) -> None:
        if dram_bytes < PAGE_4K:
            raise ConfigurationError("a node needs at least one frame of DRAM")
        self.node_id = node_id
        self.dram_bytes = dram_bytes
        self.buddy = BuddyAllocator(dram_bytes // PAGE_4K, max_order=max_order)
        self._pool_free = 0
        self._pool_blocks: List[int] = []

    # ------------------------------------------------------------------
    # Capacity
    # ------------------------------------------------------------------
    @property
    def used_bytes(self) -> int:
        """Bytes allocated to pages (pool-held free frames do not count)."""
        return (self.buddy.allocated_frames - self._pool_free) * PAGE_4K

    @property
    def free_bytes(self) -> int:
        """Bytes available for new allocations (buddy free + pool free)."""
        return (self.buddy.free_frames + self._pool_free) * PAGE_4K

    @property
    def pinned_bytes(self) -> int:
        """Bytes held by :meth:`pin_fragmented` and
        :meth:`inject_fragmentation` pins: allocator usage no mapping
        backs, which page conservation must account for separately."""
        return self.buddy.pinned_frames * PAGE_4K

    def pool_stats(self) -> PoolStats:
        """Current small-frame pool statistics."""
        return PoolStats(self._pool_free, len(self._pool_blocks))

    # ------------------------------------------------------------------
    # Small (4KB) frames — pooled, count-based
    # ------------------------------------------------------------------
    def alloc_small(self, n: int) -> None:
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
            self._pool_free += 1 << order
        self._pool_free -= n

    def free_small(self, n: int) -> None:
        """Free ``n`` 4KB frames back to the pool."""
        if n < 0:
            raise ConfigurationError("frame count must be non-negative")
        self._pool_free += n
        # Return whole blocks to the buddy while the pool is over-full.
        while self._pool_blocks and self._pool_free >= (1 << ORDER_2M):
            start = self._pool_blocks.pop()
            self.buddy.free(start, ORDER_2M)
            self._pool_free -= 1 << ORDER_2M

    def settle_small(self, net: int) -> None:
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
    # Pins: memory held for good, counted rather than recorded
    # ------------------------------------------------------------------
    def inject_fragmentation(self, n_blocks: int, order: int = 0) -> None:
        """Pin ``n_blocks`` blocks of the given order to fragment memory.

        Used by tests and examples to exercise THP's fallback path:
        after pinning enough scattered small blocks, no order-9 block
        remains and huge allocations fail.  The pins go through
        :meth:`BuddyAllocator.pin_many`, so they count towards
        :attr:`pinned_bytes` without a per-block record and are never
        freed.  Raises :class:`AllocationError` when fewer blocks are
        free, after pinning those that are.
        """
        starts = self.buddy.pin_many(order, n_blocks)
        if len(starts) < n_blocks:
            raise AllocationError(
                f"node {self.node_id}: only {len(starts)} of {n_blocks} "
                f"order-{order} blocks free to pin"
            )

    def pin_fragmented(self, target_bytes: int) -> int:
        """Pin ~``target_bytes`` so the *free* remainder is fragmented.

        Sequential buddy allocations return adjacent blocks, so naive
        pinning leaves the unpinned memory contiguous and THP-friendly.
        This helper instead holds both 1MB halves of a 2MB block and
        then releases the upper half: the freed halves can never merge
        back (their buddies stay pinned), so every byte pinned this way
        destroys two bytes of huge-page contiguity — the occupancy
        profile of a long-running host rather than a fresh boot.  Pins
        are counted in :attr:`pinned_bytes` like
        :meth:`inject_fragmentation`'s, and like those they last as
        long as the node: nothing frees them.  Returns the bytes
        actually pinned.

        Each phase is one bulk allocator step
        (:meth:`BuddyAllocator.pin_many`/:meth:`~BuddyAllocator.unpin_many`),
        which moves every free list exactly as one ``alloc``/``free``
        call per half-block would: the same free lists in the same
        iteration order, so later allocations return the same frames.
        Only the allocated map differs: it holds no pin.
        """
        if target_bytes < 0:
            raise ConfigurationError("target_bytes must be non-negative")
        half_order = ORDER_2M - 1
        half_bytes = (1 << half_order) * PAGE_4K
        upper = 1 << half_order
        # Phase 1: hold half-blocks worth twice the target, breaking a
        # proportional share of the node's 2MB blocks.
        held = self.buddy.pin_many(
            half_order, ceil_div(2 * target_bytes, half_bytes)
        )
        # Phase 2: release the upper half of every fully-held pair.
        held_set = set(held)
        released = [
            start for start in held if start & upper and start ^ upper in held_set
        ]
        self.buddy.unpin_many(released, half_order)
        pinned: int = (len(held) - len(released)) * half_bytes
        # Phase 3: top up from the now-scattered free halves (re-pinning
        # them cannot restore contiguity — their buddies stay pinned).
        top_up = self.buddy.pin_many(
            half_order, max(0, (target_bytes - pinned) // half_bytes)
        )
        pinned += len(top_up) * half_bytes
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
    def total_used_bytes(self) -> int:
        """Bytes in use across all nodes."""
        return sum(node.used_bytes for node in self.nodes)

    @property
    def total_free_bytes(self) -> int:
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

    def node_with_most_free(self, exclude: Optional[int] = None) -> int:
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
