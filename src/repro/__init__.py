"""Reproduction of "Large Pages May Be Harmful on NUMA Systems" (USENIX ATC'14).

The package is organised in layers:

``repro.hardware``
    NUMA machine model: topology, memory controllers, interconnect, TLBs,
    caches, performance counters, and IBS-style access sampling.
``repro.vm``
    Simulated operating-system virtual memory: buddy frame allocator,
    multi-size address spaces (4KB / 2MB / 1GB pages), transparent huge
    pages, page faults, migration, splitting and promotion.
``repro.sim``
    The epoch-based execution engine that runs a workload on a machine
    under a placement policy and produces runtime plus counters.
``repro.workloads``
    Synthetic models of the paper's 21 benchmarks (NAS, Metis, SSCA,
    SPECjbb, PARSEC streamcluster).
``repro.core``
    The paper's contribution: Carrefour, Carrefour-2M and the
    large-page extensions (Carrefour-LP) with its reactive and
    conservative components.
``repro.experiments``
    Drivers that regenerate every table and figure of the paper.
"""

import importlib
import sys

# Also the persistent result-cache version stamp: bump on any change
# that affects simulation output, so stale cached results are shed.
__version__ = "1.2.0"


def _lazy_exports(package: str, exports: "dict[str, tuple[str, ...]]") -> tuple:
    """The PEP 562 ``__getattr__`` and ``__dir__`` of a package root.

    ``exports`` maps each defining module to the names the package
    re-exports from it.  A name's module is imported on its first
    access, and the name is then bound in the package, so importing a
    package imports none of its modules: a warm artifact loads only the
    modules it renders with, and the simulation stack loads at the
    first simulation.
    """
    namespace = vars(sys.modules[package])
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        if name not in origin:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(origin[name]), name)
        namespace[name] = value
        return value

    def __dir__() -> list:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.hardware.machines": ("machine_a", "machine_b", "machine_by_name"),
        "repro.hardware.topology": ("NumaTopology",),
        "repro.sim.config": ("SimConfig",),
        "repro.sim.engine": ("Simulation",),
        "repro.sim.results": ("SimulationResult",),
        "repro.workloads.registry": ("available_workloads", "get_workload"),
        "repro.experiments.configs": ("POLICIES", "make_policy"),
        "repro.experiments.runner": ("run_benchmark",),
    },
)

__all__ = [
    "NumaTopology",
    "machine_a",
    "machine_b",
    "machine_by_name",
    "SimConfig",
    "Simulation",
    "SimulationResult",
    "available_workloads",
    "get_workload",
    "POLICIES",
    "make_policy",
    "run_benchmark",
    "__version__",
]
