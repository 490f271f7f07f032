"""Transparent Huge Pages state machine and the khugepaged scanner.

Linux THP has two mechanisms (paper Section 2.1):

* **allocation-time backing** — anonymous faults in an empty, aligned
  2MB range are backed by a huge page when one is available;
* **promotion** — a kernel thread (khugepaged) periodically scans for
  2MB ranges fully populated with 4KB pages and collapses them into
  huge pages (the paper sets the promotion check frequency to 10ms).

Carrefour-LP toggles the two independently: Algorithm 1 re-enables
"2MB page allocation" and "2MB page promotion" separately, and its
split path disables allocation only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.vm.address_space import AddressSpace


@dataclass
class ThpState:
    """Dynamic THP configuration, mutated by Carrefour-LP at runtime."""

    alloc_enabled: bool = True
    promotion_enabled: bool = True
    #: Chunks scanned per khugepaged invocation.
    scan_batch: int = 512
    #: Cursor so successive scans cover the whole space round-robin.
    _scan_cursor: int = field(default=0, repr=False)

    def disable_alloc(self) -> None:
        """Stop backing new faults with huge pages."""
        self.alloc_enabled = False

    def enable_alloc(self) -> None:
        """Resume backing new faults with huge pages."""
        self.alloc_enabled = True

    def disable_promotion(self) -> None:
        """Stop khugepaged collapses."""
        self.promotion_enabled = False

    def enable_promotion(self) -> None:
        """Resume khugepaged collapses."""
        self.promotion_enabled = True


def khugepaged_scan(
    state: ThpState,
    address_space: AddressSpace,
    max_collapses: Optional[int] = None,
) -> int:
    """One khugepaged pass: collapse eligible 2MB chunks.

    Scans ``state.scan_batch`` chunks starting at the saved cursor and
    collapses every fully 4KB-mapped chunk (to the plurality node of
    its constituent pages).  Returns the number of collapses performed.

    A collapse needs a free 2MB block on its target node, so when no
    node has one (memory under pressure) the pass only advances the
    cursor: every collapse attempt would fail without changing anything.
    """
    if not state.promotion_enabled:
        return 0
    n_chunks = address_space.n_chunks_2m
    if n_chunks == 0:
        return 0
    start = state._scan_cursor % n_chunks
    indices = (start + np.arange(min(state.scan_batch, n_chunks))) % n_chunks
    state._scan_cursor = int((start + len(indices)) % n_chunks)
    phys = address_space.phys
    if not any(phys[n].can_alloc_huge() for n in range(address_space.n_nodes)):
        return 0
    collapsed = 0
    from repro.vm.layout import GRANULES_PER_2M

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
