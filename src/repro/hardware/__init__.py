"""Simulated NUMA hardware: topology, memory system, TLBs, counters, IBS.

Everything the paper measures with model-specific registers on AMD
Opterons is produced here from the simulated memory-access streams.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.hardware.topology": ("NumaNode", "NumaTopology"),
        "repro.hardware.machines": ("machine_a", "machine_b", "machine_by_name"),
        "repro.hardware.mem_controller": ("MemoryControllerModel",),
        "repro.hardware.interconnect": ("InterconnectModel",),
        "repro.hardware.caches": ("CacheModel",),
        "repro.hardware.tlb": ("TlbSpec", "TlbModel"),
        "repro.hardware.counters": ("CounterBank", "EpochCounters"),
        "repro.hardware.ibs": ("IbsEngine", "IbsSamples"),
    },
)

__all__ = [
    "NumaNode",
    "NumaTopology",
    "machine_a",
    "machine_b",
    "machine_by_name",
    "MemoryControllerModel",
    "InterconnectModel",
    "CacheModel",
    "TlbSpec",
    "TlbModel",
    "CounterBank",
    "EpochCounters",
    "IbsEngine",
    "IbsSamples",
]
