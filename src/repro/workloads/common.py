"""Shared helpers for benchmark model definitions."""

from __future__ import annotations

from repro.hardware.mem_controller import MemoryControllerModel
from repro.hardware.topology import NumaTopology
from repro.workloads.base import CostProfile

#: Simulated seconds per epoch: the cost profiles are calibrated against
#: it, and the engine prices each epoch's traffic over it.
EPOCH_S = 0.25

MIB = 1024 * 1024
GIB = 1024 * MIB


def reference_cost(
    machine: NumaTopology,
    rho: float,
    cpu_s: float = 0.08,
    dram_to_mem: float = 30.0,
    mlp: float = 4.0,
) -> CostProfile:
    """Cost profile hitting a target aggregate controller utilisation.

    ``rho`` is the machine-wide memory-controller utilisation the
    workload would impose if its traffic were perfectly balanced; the
    per-thread DRAM intensity is derived from the controller capacity
    so the same *pressure* is exerted on both machines despite their
    different core counts.
    """
    capacity = MemoryControllerModel().capacity_requests_per_sec
    dram = rho * machine.n_nodes * capacity * EPOCH_S / machine.n_cores
    mem = dram * dram_to_mem
    return CostProfile(
        cpu_seconds=cpu_s,
        mem_accesses=mem,
        dram_accesses=dram,
        instructions=mem * 4.0,
        mlp=mlp,
    )


def epochs_for(scale: float, base: int = 40, floor: int = 16) -> int:
    """Number of work epochs, shrunk with the scale factor."""
    return max(floor, round(base * scale))


def scaled_bytes(n_bytes: float, scale: float, floor: int = 4 * MIB) -> int:
    """Scale a footprint, keeping at least ``floor`` bytes."""
    return int(max(n_bytes * scale, floor))
