"""Per-call reference implementations of memory-pressure setup and khugepaged.

``NodeMemory.pin_fragmented`` used to make one ``BuddyAllocator.alloc``
call per held half-block and one ``free`` call per released upper half,
recording every pin in the allocated map, and ``khugepaged_scan`` used
to try ``AddressSpace.collapse_chunk`` on every eligible chunk even when
no node had a free 2MB block.  The shipped code pins each phase in one
bulk allocator step (``pin_many``/``unpin_many``), counting the pins
instead of recording them, and skips a scan no node can back.  This
module keeps the old loops as oracles, including the single-block
``alloc``/``free`` bodies they called, so the oracle does not share the
split and merge code under test.  The equivalence tests drive both
against identical copies of the state and require identical results,
allocator internals (free-list iteration order, allocated-map insertion
order) included; the oracle's pins are the blocks its pinning added to
the allocated map, which the shipped allocator only counts.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import AllocationError, ConfigurationError
from repro.vm.address_space import AddressSpace
from repro.vm.frame_allocator import BuddyAllocator, NodeMemory
from repro.vm.layout import GRANULES_PER_2M, ORDER_2M, PAGE_4K
from repro.vm.thp import ThpState


def alloc(buddy: BuddyAllocator, order: int) -> int:
    """One block: pop the smallest free block that fits, split it down."""
    buddy._check_order(order)
    source = order
    while source <= buddy.max_order and not buddy._free[source]:
        source += 1
    if source > buddy.max_order:
        raise AllocationError(
            f"no free block of order >= {order} "
            f"({buddy._free_frames} frames free)"
        )
    start = buddy._free[source].pop()
    while source > order:
        source -= 1
        buddy._free[source].add(start + (1 << source))
    buddy._allocated[start] = order
    buddy._free_frames -= 1 << order
    return start


def free(buddy: BuddyAllocator, start: int, order: int) -> None:
    """One block: forget it, then merge it with free buddies."""
    buddy._check_order(order)
    recorded = buddy._allocated.pop(start, None)
    if recorded is None:
        raise AllocationError(f"block at frame {start} is not allocated")
    if recorded != order:
        buddy._allocated[start] = recorded
        raise AllocationError(
            f"block at frame {start} was allocated with order {recorded}, "
            f"not {order}"
        )
    buddy._free_frames += 1 << order
    while order < buddy.max_order:
        buddy_start = start ^ (1 << order)
        if buddy_start not in buddy._free[order]:
            break
        buddy._free[order].remove(buddy_start)
        start = min(start, buddy_start)
        order += 1
    buddy._free[order].add(start)


def pin_fragmented(node: NodeMemory, target_bytes: int) -> int:
    """The per-call pinning loop: one allocator call per block, each pin
    recorded in the allocated map.  Returns the bytes pinned."""
    if target_bytes < 0:
        raise ConfigurationError("target_bytes must be non-negative")
    buddy = node.buddy
    half_order = ORDER_2M - 1
    half_bytes = (1 << half_order) * PAGE_4K
    held = []
    while (
        len(held) * half_bytes < 2 * target_bytes
        and buddy.can_alloc(half_order)
    ):
        held.append(alloc(buddy, half_order))
    held_set = set(held)
    pinned = 0
    for start in held:
        upper = bool(start & (1 << half_order))
        if upper and (start ^ (1 << half_order)) in held_set:
            free(buddy, start, half_order)
        else:
            pinned += half_bytes
    while (
        pinned + half_bytes <= target_bytes
        and buddy.can_alloc(half_order)
    ):
        alloc(buddy, half_order)
        pinned += half_bytes
    remainder = min(max(0, target_bytes - pinned) // PAGE_4K, buddy.free_frames)
    for _ in range(remainder):
        alloc(buddy, 0)
    return pinned + remainder * PAGE_4K


def khugepaged_scan(
    state: ThpState,
    address_space: AddressSpace,
    max_collapses: Optional[int] = None,
) -> int:
    """The per-chunk scan: try every eligible chunk, backable or not."""
    if not state.promotion_enabled:
        return 0
    n_chunks = address_space.n_chunks_2m
    if n_chunks == 0:
        return 0
    start = state._scan_cursor % n_chunks
    indices = (start + np.arange(min(state.scan_batch, n_chunks))) % n_chunks
    state._scan_cursor = int((start + len(indices)) % n_chunks)
    collapsed = 0
    eligible = indices[
        (~address_space.huge[indices])
        & (address_space.mapped_count_2m[indices] == GRANULES_PER_2M)
    ]
    for chunk in eligible:
        if max_collapses is not None and collapsed >= max_collapses:
            break
        if address_space.collapse_chunk(int(chunk)):
            collapsed += 1
    return collapsed
