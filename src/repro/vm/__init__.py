"""Simulated operating-system virtual-memory subsystem.

This package is the substrate that the paper's kernel changes live in:
a per-node buddy frame allocator, multi-size address spaces (4KB / 2MB /
1GB pages), transparent huge pages (allocation-time backing plus a
khugepaged-style promotion scanner), page-fault cost accounting,
page migration and large-page splitting.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.vm.layout": (
            "PAGE_4K",
            "PAGE_2M",
            "PAGE_1G",
            "GRANULES_PER_2M",
            "GRANULES_PER_1G",
            "PageSize",
        ),
        "repro.vm.frame_allocator": (
            "BuddyAllocator",
            "NodeMemory",
            "PhysicalMemory",
        ),
        "repro.vm.address_space": ("AddressSpace", "FaultStats"),
        "repro.vm.page_table": ("PageTableModel",),
        "repro.vm.thp": ("ThpState", "khugepaged_scan"),
        "repro.vm.page_fault": ("PageFaultModel",),
        "repro.vm.migration": ("MigrationCostModel",),
    },
)

__all__ = [
    "PAGE_4K",
    "PAGE_2M",
    "PAGE_1G",
    "GRANULES_PER_2M",
    "GRANULES_PER_1G",
    "PageSize",
    "BuddyAllocator",
    "NodeMemory",
    "PhysicalMemory",
    "AddressSpace",
    "FaultStats",
    "PageTableModel",
    "ThpState",
    "khugepaged_scan",
    "PageFaultModel",
    "MigrationCostModel",
]
