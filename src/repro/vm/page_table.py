"""Page-table footprint model.

x86-64 uses a four-level radix page table.  Backing memory with 2MB
pages removes the leaf (PTE) level for those ranges; 1GB pages remove
two levels.  The paper's motivation cites an Oracle installation whose
page tables alone consumed 7GB of RAM; this model quantifies that
effect, and ``examples/page_table_overhead.py`` reproduces the
calculation with it.  The simulator does not read it: walk cost comes
from the TLB and cache models, and replicating page tables
(``ReplicatePageTables``) is priced by
:meth:`repro.vm.address_space.AddressSpace.page_table_bytes`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.vm.address_space import AddressSpace
from repro.vm.layout import GRANULES_PER_2M, PAGE_4K, PageSize

#: Bytes per page-table entry on x86-64.
PTE_BYTES = 8
#: Entries per page-table page (4KB / 8B).
ENTRIES_PER_TABLE = PAGE_4K // PTE_BYTES  # 512


@dataclass(frozen=True)
class PageTableFootprint:
    """Sizes of each page-table level for one address space."""

    pte_tables: int  # level-1 tables (4KB leaf entries)
    pmd_tables: int  # level-2 tables (2MB leaf entries or PTE pointers)
    pud_tables: int  # level-3 tables
    pgd_tables: int  # level-4 table (always 1 when anything is mapped)

    @property
    def total_tables(self) -> int:
        """Total number of 4KB table pages."""
        return self.pte_tables + self.pmd_tables + self.pud_tables + self.pgd_tables

    @property
    def total_bytes(self) -> int:
        """Total page-table memory in bytes."""
        return self.total_tables * PAGE_4K


class PageTableModel:
    """Derives page-table footprints from an address space.

    A PTE table exists for every 2MB chunk that holds at least one 4KB
    mapping; 2MB-backed chunks are represented directly by a PMD entry
    and need no PTE table.  Upper levels are counted by the number of
    child tables they must point to.
    """

    def footprint(self, address_space: AddressSpace) -> PageTableFootprint:
        """Compute the page-table footprint of an address space."""
        has_pte = address_space.mapped_count_2m > 0
        pte_tables = int(np.count_nonzero(has_pte))
        # PMD entries cover 2MB each: one per PTE table plus one per
        # huge-backed chunk.  512 PMD entries per PMD table.
        pmd_entries_chunks = has_pte | address_space.huge
        # Group 2MB chunks by their parent PMD table (1GB span).
        n_pmd_parents = address_space.n_chunks_1g
        pmd_tables = 0
        for parent in range(n_pmd_parents):
            lo = parent * ENTRIES_PER_TABLE
            hi = min(lo + ENTRIES_PER_TABLE, address_space.n_chunks_2m)
            if address_space.giga[parent] or np.any(pmd_entries_chunks[lo:hi]):
                if not address_space.giga[parent]:
                    pmd_tables += 1
        # PUD entries cover 1GB each: one per PMD table or 1GB page.
        pud_entries = pmd_tables + int(np.count_nonzero(address_space.giga))
        pud_tables = max(1, -(-pud_entries // ENTRIES_PER_TABLE)) if pud_entries else 0
        pgd_tables = 1 if (pud_tables or pud_entries) else 0
        return PageTableFootprint(
            pte_tables=pte_tables,
            pmd_tables=pmd_tables,
            pud_tables=pud_tables,
            pgd_tables=pgd_tables,
        )

    def bytes_for_fully_mapped(
        self, mapped_bytes: int, page_size: PageSize
    ) -> int:
        """Closed-form page-table bytes for a fully mapped flat region.

        Handy for examples (e.g. reproducing the "7GB of page tables"
        motivation): how much table memory does mapping ``mapped_bytes``
        with a uniform page size cost, ignoring sharing?
        """
        if mapped_bytes <= 0:
            return 0
        granules = -(-mapped_bytes // PAGE_4K)
        chunks_2m = -(-granules // GRANULES_PER_2M)
        if page_size is PageSize.SIZE_4K:
            pte = chunks_2m
        else:
            pte = 0
        pmd_entries = chunks_2m if page_size is not PageSize.SIZE_1G else 0
        pmd = -(-pmd_entries // ENTRIES_PER_TABLE) if pmd_entries else 0
        gig_entries = -(-granules // (ENTRIES_PER_TABLE * GRANULES_PER_2M))
        pud = -(-max(pmd, gig_entries) // ENTRIES_PER_TABLE) or 1
        return (pte + pmd + pud + 1) * PAGE_4K

    def footprint_per_process(
        self, mapped_bytes: int, page_size: PageSize, n_processes: int
    ) -> Dict[str, int]:
        """Aggregate table cost for many processes mapping the same region.

        Models the Oracle-style scenario: each of ``n_processes``
        connections maps the shared buffer cache with private tables.
        """
        per_process = self.bytes_for_fully_mapped(mapped_bytes, page_size)
        return {
            "per_process_bytes": per_process,
            "total_bytes": per_process * n_processes,
        }
