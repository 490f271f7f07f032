"""Test-side views of the VM layer's state.

The simulator reads a backing page's node through vectorized gathers
and checks the buddy allocator's counters at run time
(``check_accounting``); these helpers answer the same questions one
page or one list at a time, for assertions.
"""

from __future__ import annotations

from typing import Set

from repro.vm.address_space import (
    BACKING_ID_1G_OFFSET,
    BACKING_ID_2M_OFFSET,
    AddressSpace,
)
from repro.vm.frame_allocator import BuddyAllocator
from repro.vm.layout import PageSize


def node_of_backing(asp: AddressSpace, backing_id: int) -> int:
    """Home node of a backing page (-1 if unmapped)."""
    kind = asp.backing_id_kind(backing_id)
    if kind is PageSize.SIZE_4K:
        return int(asp.node4k[backing_id])
    if kind is PageSize.SIZE_2M:
        return int(asp.node2m[backing_id - BACKING_ID_2M_OFFSET])
    return int(asp.node1g[backing_id - BACKING_ID_1G_OFFSET])


def free_blocks(buddy: BuddyAllocator, order: int) -> int:
    """Number of free blocks on the given order's list."""
    return len(buddy._free[order])


def check_buddy_invariants(buddy: BuddyAllocator) -> None:
    """Raise if the allocator's bookkeeping is inconsistent: its
    counters (``check_accounting``), and every free block aligned to
    its order with no two overlapping."""
    buddy.check_accounting()
    seen: Set[int] = set()
    for order, blocks in enumerate(buddy._free):
        for start in blocks:
            if start % (1 << order) != 0:
                raise AssertionError(f"misaligned free block {start}@{order}")
            span = set(range(start, start + (1 << order)))
            if seen & span:
                raise AssertionError("overlapping free blocks")
            seen |= span
