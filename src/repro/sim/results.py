"""Simulation results and derived run metrics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SimulationError
from repro.hardware.counters import CounterBank
from repro.sim.policy import PolicyActionSummary
from repro.sim.tracker import HotPageStats
from repro.vm.layout import PageSize


def _improvement_pct(runtime_s: float, baseline_runtime_s: float) -> float:
    """The improvement formula of :meth:`RunMetrics.improvement_over`."""
    if runtime_s <= 0:
        raise SimulationError("runtime must be positive")
    return (baseline_runtime_s / runtime_s - 1.0) * 100.0


@dataclass(frozen=True)
class RunMetrics:
    """The paper's reporting metrics for one run.

    Percentages follow the paper's definitions: LAR is the percent of
    DRAM requests serviced by the accessing thread's node; imbalance is
    the standard deviation of per-controller request counts as percent
    of the mean; ``pct_l2_walk`` is the percent of L2 misses caused by
    page-table walks; ``max_fault_pct`` is the maximum per-core share
    of time spent in the page-fault handler.
    """

    runtime_s: float
    lar_pct: float
    imbalance_pct: float
    pct_l2_walk: float
    fault_time_total_s: float
    max_fault_pct: float
    tlb_misses: float
    dram_requests: float
    pamup_pct: Optional[float] = None
    n_hot_pages: Optional[int] = None
    psp_pct: Optional[float] = None
    pages_migrated_4k: int = 0
    pages_migrated_2m: int = 0
    pages_split_2m: int = 0
    pages_split_1g: int = 0
    pages_collapsed_2m: int = 0
    pages_replicated: int = 0
    replicas_collapsed: int = 0
    final_page_counts: Dict[PageSize, int] = field(default_factory=dict)

    def improvement_over(self, baseline: "RunMetrics") -> float:
        """Performance improvement in percent relative to a baseline run.

        Positive means faster than the baseline (the paper's Figures
        1-5 plot exactly this, with Linux-4KB as the baseline).
        """
        return _improvement_pct(self.runtime_s, baseline.runtime_s)


@dataclass
class SimulationResult:
    """Everything produced by one :class:`repro.sim.engine.Simulation` run."""

    workload: str
    machine: str
    policy: str
    runtime_s: float
    epoch_times_s: List[float]
    bank: CounterBank
    hot_stats: Optional[HotPageStats]
    action_log: List[Tuple[float, PolicyActionSummary]]
    final_page_counts: Dict[PageSize, int]

    def metrics(self) -> RunMetrics:
        """Aggregate the run into the paper's reporting metrics."""
        migrated_4k = sum(s.migrated_4k for _, s in self.action_log)
        migrated_2m = sum(s.migrated_2m for _, s in self.action_log)
        splits_2m = sum(s.splits_2m for _, s in self.action_log)
        splits_1g = sum(s.splits_1g for _, s in self.action_log)
        collapses = sum(s.collapses_2m for _, s in self.action_log)
        replicated = sum(s.replicated_pages for _, s in self.action_log)
        return RunMetrics(
            runtime_s=self.runtime_s,
            lar_pct=self.bank.lar(),
            imbalance_pct=self.bank.imbalance(),
            pct_l2_walk=self.bank.pct_l2_misses_from_walks(),
            fault_time_total_s=self.bank.total_fault_time_s(),
            max_fault_pct=self.bank.max_fault_time_fraction(),
            tlb_misses=self.bank.total("tlb_misses"),
            dram_requests=self.bank.total("l2_data_misses"),
            pamup_pct=self.hot_stats.pamup_pct if self.hot_stats else None,
            n_hot_pages=self.hot_stats.n_hot_pages if self.hot_stats else None,
            psp_pct=self.hot_stats.psp_pct if self.hot_stats else None,
            pages_migrated_4k=migrated_4k,
            pages_migrated_2m=migrated_2m,
            pages_split_2m=splits_2m,
            pages_split_1g=splits_1g,
            pages_collapsed_2m=collapses,
            pages_replicated=replicated,
            replicas_collapsed=int(self.bank.total("replicas_collapsed")),
            final_page_counts=dict(self.final_page_counts),
        )

    def improvement_over(self, baseline: "SimulationResult") -> float:
        """Percent performance improvement relative to a baseline run.

        The value :meth:`RunMetrics.improvement_over` gives for the two
        runs' metrics, computed from the two runtimes alone.
        """
        return _improvement_pct(self.runtime_s, baseline.runtime_s)

    def steady_bank(self, skip_fraction: float = 0.3) -> CounterBank:
        """Counters restricted to the run's steady state.

        Skips the first ``skip_fraction`` of epochs so warm-up (the
        allocation storm and the daemon's convergence) does not dilute
        the NUMA metrics.  The paper's runs are long relative to the
        one-second daemon interval, so its whole-run profiles are
        effectively steady-state; short simulated runs need the
        explicit cut.
        """
        if not 0.0 <= skip_fraction < 1.0:
            raise SimulationError("skip_fraction must be in [0, 1)")
        n = len(self.bank.epochs)
        start = int(n * skip_fraction)
        return self.bank.window(start)

    def steady_lar(self, skip_fraction: float = 0.3) -> float:
        """Steady-state local access ratio, percent."""
        return self.steady_bank(skip_fraction).lar()

    def steady_imbalance(self, skip_fraction: float = 0.3) -> float:
        """Steady-state controller imbalance, percent of mean."""
        return self.steady_bank(skip_fraction).imbalance()

    def describe(self) -> str:
        """One-line summary for logs."""
        m = self.metrics()
        return (
            f"{self.workload}@{self.machine}/{self.policy}: "
            f"{m.runtime_s:.2f}s LAR={m.lar_pct:.0f}% "
            f"imb={m.imbalance_pct:.0f}% walkL2={m.pct_l2_walk:.1f}%"
        )
