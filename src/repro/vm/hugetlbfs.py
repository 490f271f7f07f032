"""libhugetlbfs-style explicit 1GB page backing (paper Section 4.4).

The paper's very-large-page study pre-allocates 1GB pages through
libhugetlbfs (THP does not support 1GB pages).  We model the same
behaviour: a region is backed with 1GB pages at map time, spread
round-robin or first-touch across nodes; splitting support — which
libhugetlbfs lacks and the paper calls out as a gap — *is* implemented
here so Carrefour-LP can be evaluated with 1GB pages.
"""

from __future__ import annotations

from typing import List

from repro.errors import AllocationError, MappingError
from repro.vm.address_space import AddressSpace, FaultStats
from repro.vm.layout import GRANULES_PER_1G, SHIFT_1G


def reserve_1g_region(
    address_space: AddressSpace,
    start_granule: int,
    n_granules: int,
    preferred_node: int,
    spread: bool = False,
) -> FaultStats:
    """Back a region with 1GB pages at map time.

    With ``spread`` the pages are placed round-robin across nodes
    (numactl --interleave style); otherwise they all land on
    ``preferred_node`` — the libhugetlbfs default, which is exactly what
    produces the paper's catastrophic hot-node behaviour.
    """
    if n_granules % GRANULES_PER_1G or start_granule % GRANULES_PER_1G:
        raise MappingError("hugetlbfs regions must be 1GB-aligned and -sized")
    stats = FaultStats()
    n_nodes = address_space.n_nodes
    for i, gchunk in enumerate(
        range(start_granule >> SHIFT_1G, (start_granule + n_granules) >> SHIFT_1G)
    ):
        node = (preferred_node + i) % n_nodes if spread else preferred_node
        base = gchunk << SHIFT_1G
        try:
            stats.merge(
                address_space.map_range_1g(base, GRANULES_PER_1G, node)
            )
        except AllocationError:
            # libhugetlbfs fails hard when the pool is exhausted; the
            # paper reports exactly such reliability problems.  Surface
            # the failure to the caller.
            raise
    return stats


def round_up_granules_1g(n_granules: int) -> int:
    """Round a granule count up to a whole number of 1GB pages."""
    if n_granules < 0:
        raise MappingError("granule count must be non-negative")
    return -(-n_granules // GRANULES_PER_1G) * GRANULES_PER_1G


def list_1g_pages(address_space: AddressSpace) -> List[int]:
    """Backing ids of all live 1GB pages (for policy iteration)."""
    import numpy as np

    from repro.vm.address_space import BACKING_ID_1G_OFFSET

    return [
        int(g) + BACKING_ID_1G_OFFSET
        for g in np.flatnonzero(address_space.giga)
    ]
