"""Page-table footprint model.

x86-64 uses a four-level radix page table.  Backing memory with 2MB
pages removes the leaf (PTE) level for those ranges; 1GB pages remove
two levels.  The paper's motivation cites an Oracle installation whose
page tables alone consumed 7GB of RAM; this model quantifies that
effect in closed form, and ``examples/page_table_overhead.py``
reproduces the calculation with it.  The simulator does not read it:
walk cost comes from the TLB and cache models, and a live address
space's tables (what ``ReplicatePageTables`` copies) are counted by
:meth:`repro.vm.address_space.AddressSpace.page_table_bytes`.
"""

from __future__ import annotations

from typing import Dict

from repro.vm.layout import GRANULES_PER_2M, PAGE_4K, PageSize

#: Bytes per page-table entry on x86-64.
PTE_BYTES = 8
#: Entries per page-table page (4KB / 8B).
ENTRIES_PER_TABLE = PAGE_4K // PTE_BYTES  # 512


class PageTableModel:
    """Closed-form page-table costs of fully mapped regions."""

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
