"""Epoch-based simulation engine.

The engine advances a workload in fixed work quanta (epochs).  Each
epoch it materialises first-touch allocations, translates the sampled
DRAM-access streams through the address space, prices the traffic with
the memory-controller and interconnect models, evaluates the TLB model
against the current backing state, and charges page-fault and policy
maintenance time.  Runtime is the sum of epoch times; performance
comparisons are ratios of runtimes for the same workload under
different placement policies.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.sim.config": ("MachineModels", "SimConfig"),
        "repro.sim.engine": ("Simulation",),
        "repro.sim.policy": (
            "LinuxPolicy",
            "PlacementPolicy",
            "PolicyActionSummary",
        ),
        "repro.sim.results": ("RunMetrics", "SimulationResult"),
        "repro.sim.tracker": ("AccessTracker",),
    },
)

__all__ = [
    "SimConfig",
    "MachineModels",
    "Simulation",
    "PlacementPolicy",
    "LinuxPolicy",
    "PolicyActionSummary",
    "SimulationResult",
    "RunMetrics",
    "AccessTracker",
]
