"""Page-size constants and granule arithmetic.

Throughout the package, virtual memory is addressed in *granules* of 4KB
(the base page size on x86).  A 2MB huge page covers 512 consecutive
granules aligned to a 512-granule boundary; a 1GB page covers 262144
granules.  Working in granule indices (plain int64 arrays) keeps every
translation step vectorisable with numpy.
"""

from __future__ import annotations

import enum

PAGE_4K = 4 * 1024
PAGE_2M = 2 * 1024 * 1024
PAGE_1G = 1024 * 1024 * 1024

#: Number of 4KB granules per 2MB huge page.
GRANULES_PER_2M = PAGE_2M // PAGE_4K  # 512
#: Number of 4KB granules per 1GB huge page.
GRANULES_PER_1G = PAGE_1G // PAGE_4K  # 262144
#: Number of 2MB chunks per 1GB chunk.
CHUNKS_2M_PER_1G = PAGE_1G // PAGE_2M  # 512

#: log2(granules per 2MB page)
SHIFT_2M = 9
#: log2(granules per 1GB page)
SHIFT_1G = 18

# Buddy-allocator orders, in units of 4KB frames (order 0 = one frame).
ORDER_4K = 0
ORDER_2M = 9
ORDER_1G = 18


class PageSize(enum.IntEnum):
    """Backing-page size classes understood by the address space and TLBs."""

    SIZE_4K = PAGE_4K
    SIZE_2M = PAGE_2M
    SIZE_1G = PAGE_1G

    @property
    def granules(self) -> int:
        """Number of 4KB granules covered by one page of this size."""
        return int(self) // PAGE_4K

    @property
    def order(self) -> int:
        """Buddy-allocator order of one page of this size."""
        return {PAGE_4K: ORDER_4K, PAGE_2M: ORDER_2M, PAGE_1G: ORDER_1G}[int(self)]
