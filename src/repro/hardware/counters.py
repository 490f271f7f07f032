"""Hardware performance-counter accounting.

The real system reads model-specific registers; we account the same
quantities exactly from the simulation.  Two consumers exist:

* the *reporting* path (Tables 1-3 of the paper) reads whole-run
  aggregates;
* the *policy* path (Carrefour-LP's conservative component) reads the
  aggregate over the last monitoring interval (one simulated second).

Both consume :class:`EpochCounters` objects merged by
:class:`CounterBank`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError


@dataclass
class EpochCounters:
    """Event counts for one simulated epoch.

    All request counts are *represented* counts (scaled up from the
    sampled stream to the workload's real intensity).
    """

    epoch: int
    duration_s: float
    #: (n_nodes, n_nodes) DRAM requests: [accessing node, home node].
    traffic: np.ndarray
    instructions: float = 0.0
    mem_accesses: float = 0.0
    l2_data_misses: float = 0.0
    walk_l2_misses: float = 0.0
    tlb_misses: float = 0.0
    page_faults_4k: float = 0.0
    page_faults_2m: float = 0.0
    page_faults_1g: float = 0.0
    #: Page-fault handler time per core, seconds.
    fault_time_per_core_s: Optional[np.ndarray] = None
    daemon_time_s: float = 0.0
    #: Thread-summed time components (diagnostics; the epoch's critical
    #: path is duration_s, set by the slowest thread).
    time_cpu_s: float = 0.0
    time_dram_s: float = 0.0
    time_walk_s: float = 0.0
    time_fault_s: float = 0.0
    time_ibs_s: float = 0.0
    pages_collapsed_2m: int = 0
    #: Replicated pages collapsed because a write hit them this epoch.
    replicas_collapsed: int = 0
    ibs_samples: int = 0

    def __post_init__(self) -> None:
        self.traffic = np.asarray(self.traffic, dtype=np.float64)
        if self.traffic.ndim != 2 or self.traffic.shape[0] != self.traffic.shape[1]:
            raise ConfigurationError("traffic must be a square matrix")
        if self.duration_s < 0:
            raise ConfigurationError("epoch duration must be non-negative")
        if self.fault_time_per_core_s is not None:
            self.fault_time_per_core_s = np.asarray(
                self.fault_time_per_core_s, dtype=np.float64
            )

    @property
    def dram_requests(self) -> float:
        """Total DRAM requests across all controllers."""
        return float(self.traffic.sum())


@dataclass
class CounterBank:
    """Aggregate of epoch counters with the paper's derived metrics."""

    n_nodes: int
    n_cores: int
    epochs: List[EpochCounters] = field(default_factory=list)

    def add(self, counters: EpochCounters) -> None:
        """Record one epoch's counters."""
        if counters.traffic.shape != (self.n_nodes, self.n_nodes):
            raise ConfigurationError(
                f"traffic shape {counters.traffic.shape} does not match "
                f"{self.n_nodes} nodes"
            )
        self.epochs.append(counters)

    def window(self, start_epoch: int, end_epoch: Optional[int] = None) -> "CounterBank":
        """A sub-bank over ``[start_epoch, end_epoch)`` (by epoch index)."""
        selected = [
            e
            for e in self.epochs
            if e.epoch >= start_epoch and (end_epoch is None or e.epoch < end_epoch)
        ]
        bank = CounterBank(self.n_nodes, self.n_cores)
        bank.epochs = selected
        return bank

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def duration_s(self) -> float:
        """Total simulated time covered by the bank."""
        return sum(e.duration_s for e in self.epochs)

    @property
    def traffic(self) -> np.ndarray:
        """Summed (accessing node, home node) DRAM traffic matrix."""
        total = np.zeros((self.n_nodes, self.n_nodes), dtype=np.float64)
        for e in self.epochs:
            total += e.traffic
        return total

    def total(self, attribute: str) -> float:
        """Sum a scalar counter attribute across epochs."""
        return float(sum(getattr(e, attribute) for e in self.epochs))

    @property
    def fault_time_per_core_s(self) -> np.ndarray:
        """Summed page-fault handler time per core."""
        total = np.zeros(self.n_cores, dtype=np.float64)
        for e in self.epochs:
            if e.fault_time_per_core_s is not None:
                total += e.fault_time_per_core_s
        return total

    # ------------------------------------------------------------------
    # Derived metrics (paper Section 2.2)
    # ------------------------------------------------------------------
    def lar(self) -> float:
        """Local access ratio: percent of DRAM requests to the local node."""
        traffic = self.traffic
        total = traffic.sum()
        if total <= 0:
            return 100.0
        return 100.0 * float(np.trace(traffic)) / float(total)

    def imbalance(self) -> float:
        """Traffic imbalance: std-dev of per-controller request rates, % of mean."""
        per_controller = self.traffic.sum(axis=0)
        mean = per_controller.mean()
        if mean <= 0:
            return 0.0
        return 100.0 * float(per_controller.std()) / float(mean)

    def pct_l2_misses_from_walks(self) -> float:
        """Percent of all L2 misses caused by page-table walks."""
        walks = self.total("walk_l2_misses")
        data = self.total("l2_data_misses")
        total = walks + data
        if total <= 0:
            return 0.0
        return 100.0 * walks / total

    def max_fault_time_fraction(self) -> float:
        """Max over cores of (page-fault handler time / total time), percent."""
        duration = self.duration_s
        if duration <= 0:
            return 0.0
        return 100.0 * float(self.fault_time_per_core_s.max()) / duration

    def total_fault_time_s(self) -> float:
        """Summed page-fault handler time across cores (paper Table 1)."""
        return float(self.fault_time_per_core_s.sum())

    def maptu(self) -> float:
        """Memory accesses (DRAM requests) per microsecond of run time.

        Carrefour's global enable threshold is stated in terms of memory
        accesses per time unit (MAPTU); we use requests per microsecond.
        """
        duration = self.duration_s
        if duration <= 0:
            return 0.0
        return self.total("l2_data_misses") / (duration * 1e6)

    def describe(self) -> str:
        """Short human-readable summary for debugging and reports."""
        return (
            f"{len(self.epochs)} epochs, {self.duration_s:.2f}s, "
            f"LAR={self.lar():.1f}%, imbalance={self.imbalance():.1f}%, "
            f"L2-walk={self.pct_l2_misses_from_walks():.1f}%, "
            f"max-fault={self.max_fault_time_fraction():.1f}%"
        )
