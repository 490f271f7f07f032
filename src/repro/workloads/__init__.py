"""Synthetic models of the paper's benchmark applications.

Each benchmark is modelled as a set of memory *regions* with
characteristic access patterns (per-thread partitions, shared
zipf-skewed heaps, compact hot arrays, growing streams) plus a cost
profile (instruction rate, memory intensity).  The parameters are
chosen so that the *published traits* of each benchmark emerge: the
hot-page effect for CG, page-level false sharing for UA, TLB pressure
for SSCA and WC, allocation storms for the Metis suite, and so on.
See ``DESIGN.md`` section 6 for the modelling rationale.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.workloads.base": (
            "CostProfile",
            "FaultBatch",
            "TlbGroup",
            "Workload",
            "WorkloadInstance",
        ),
        "repro.workloads.regions": (
            "HotRegion",
            "PartitionedRegion",
            "Region",
            "SharedRegion",
            "StreamRegion",
        ),
        "repro.workloads.registry": ("available_workloads", "get_workload"),
        "repro.workloads.streambank": (
            "StreamBank",
            "clear_stream_banks",
            "get_stream_bank",
        ),
        "repro.workloads.trace": (
            "TraceData",
            "TraceRecorder",
            "TraceWorkloadInstance",
        ),
    },
)

__all__ = [
    "CostProfile",
    "FaultBatch",
    "TlbGroup",
    "Workload",
    "WorkloadInstance",
    "Region",
    "PartitionedRegion",
    "SharedRegion",
    "HotRegion",
    "StreamRegion",
    "available_workloads",
    "get_workload",
    "TraceData",
    "TraceRecorder",
    "TraceWorkloadInstance",
    "StreamBank",
    "clear_stream_banks",
    "get_stream_bank",
]
