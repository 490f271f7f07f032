"""Per-granule reference for the address-space invariant check.

``repro.analysis.invariants.check_address_space`` used to index every
mapped 4KB granule (``np.flatnonzero(asp.node4k >= 0)``) and gather its
2MB and 1GB chunks through two ``int64`` arrays as long as the mapping:
26 MiB per call on a fully mapped quick IS.D@B space.  The shipped check
counts each chunk's mapped granules from the ``bool`` mask and derives
the same checks from those counts.  This module keeps the old body as
the oracle: on every corruption the two must raise the same message, and
on a clean space neither raises.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.invariants import InvariantViolation
from repro.vm.layout import GRANULES_PER_2M, PAGE_4K, PageSize, SHIFT_1G, SHIFT_2M


def check_address_space(asp) -> None:
    """The per-granule check: index every mapped granule, then gather."""
    mapped4 = np.flatnonzero(asp.node4k >= 0)
    huge_chunks = np.flatnonzero(asp.huge)
    giga_chunks = np.flatnonzero(asp.giga)

    if mapped4.size and np.any(asp.huge[mapped4 >> SHIFT_2M]):
        raise InvariantViolation("4KB mapping inside a 2MB huge page")
    if mapped4.size and np.any(asp.giga[mapped4 >> SHIFT_1G]):
        raise InvariantViolation("4KB mapping inside a 1GB page")
    if huge_chunks.size and np.any(
        asp.giga[huge_chunks >> (SHIFT_1G - SHIFT_2M)]
    ):
        raise InvariantViolation("2MB huge page inside a 1GB page")

    counted = np.zeros(asp.n_chunks_2m, dtype=np.int64)
    if mapped4.size:
        counted += np.bincount(
            mapped4 >> SHIFT_2M, minlength=asp.n_chunks_2m
        )
    if not np.array_equal(counted, asp.mapped_count_2m.astype(np.int64)):
        bad = int(np.flatnonzero(counted != asp.mapped_count_2m)[0])
        raise InvariantViolation(
            f"mapped_count_2m out of sync at chunk {bad}: "
            f"counted {int(counted[bad])}, "
            f"recorded {int(asp.mapped_count_2m[bad])} "
            f"(a 2MB split must yield exactly {GRANULES_PER_2M} children)"
        )
    if np.any(asp.mapped_count_2m < 0) or np.any(
        asp.mapped_count_2m > GRANULES_PER_2M
    ):
        raise InvariantViolation("mapped_count_2m outside [0, 512]")

    if huge_chunks.size and np.any(asp.node2m[huge_chunks] < 0):
        raise InvariantViolation("live 2MB page without a home node")
    if giga_chunks.size and np.any(asp.node1g[giga_chunks] < 0):
        raise InvariantViolation("live 1GB page without a home node")

    if np.any(asp.replicated_4k & (asp.node4k < 0)):
        raise InvariantViolation("replicated granule without a mapping")
    if np.any(asp.replicated_2m & ~asp.huge):
        raise InvariantViolation("replicated 2MB chunk is not huge-backed")
    expected_replicas = (
        int(np.count_nonzero(asp.replicated_4k)) * (asp.n_nodes - 1) * PAGE_4K
        + int(np.count_nonzero(asp.replicated_2m))
        * (asp.n_nodes - 1)
        * int(PageSize.SIZE_2M)
    )
    if expected_replicas != asp.replica_bytes:
        raise InvariantViolation(
            f"replica byte counter out of sync: expected "
            f"{expected_replicas}, recorded {asp.replica_bytes}"
        )
    flagged = int(np.count_nonzero(asp.replicated_4k)) + int(
        np.count_nonzero(asp.replicated_2m)
    )
    if flagged != asp.replicated_pages:
        raise InvariantViolation(
            f"replicated page count out of sync: {flagged} flagged, "
            f"recorded {asp.replicated_pages} (translation skips the "
            "replication gathers while the count is zero)"
        )
