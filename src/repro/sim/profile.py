"""Per-phase wall-clock profiling for the simulation engine.

Every simulated result is a sum of per-epoch engine phases, and perf
work on the hot path needs to know where the wall-clock time actually
goes.  Every tenant owns a :class:`PhaseTimer` and calls
:meth:`PhaseTimer.lap` after each phase of ``_run_epoch``; phases are
attributed as:

* ``premap``      — allocation-phase faulting (step 1),
* ``stream_bank`` — stream-bank fetches (generation on a bank miss,
  array handoff on a hit),
* ``streams``     — translation, demand faulting and traffic binning
  (fault-epoch TLB work is also billed here: the sequential fallback
  interleaves the two),
* ``tlb``         — backing classification + TLB model (no-fault epochs),
* ``tracker``     — ground-truth access-tracker aggregation (the
  profiling metrics PAMUP/NHP/PSP, not simulation state),
* ``ibs``         — IBS sample draws and buffer appends,
* ``pricing``     — controller queueing + interconnect pricing (step 3),
* ``maintenance`` — khugepaged, replica collapses, counter banking,
* ``policy``      — the placement-policy daemon (step 5),
* ``other``       — per-epoch remainder no phase above claims
  (invariant checks are not in it: the host runs them after the
  tenant's timed epoch).

The timer always runs: it costs a few microseconds per epoch, well
under 0.1% of an artifact.  It is **result-neutral**: it never touches
simulation state and its timings live on the tenant, not in
:class:`SimulationResult`, so results and cache keys are the same as
without it.

Wall-clock reads are confined to this module and are the reason the
``# lint: ignore[R104]`` suppressions below exist: the timings are
observability output, never simulation input.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro.sim.config import SimConfig

#: Static-analysis registry (rule R101): everything in this module is
#: observation-only and must have no transitive write effect on
#: simulation state.  R101 also protects this module by
#: default, so deleting this declaration does not disable the check.
_RESULT_NEUTRAL = ("sim.profile",)

#: Engine phases in execution order (``other`` holds the remainder).
PHASES = (
    "premap",
    "stream_bank",
    "streams",
    "tlb",
    "tracker",
    "ibs",
    "pricing",
    "maintenance",
    "policy",
    "other",
)


class PhaseTimer:
    """Accumulates wall time per engine phase across epochs.

    The engine brackets each epoch with :meth:`epoch_start` /
    :meth:`epoch_end` and calls :meth:`lap` after finishing a phase;
    the lap charges the time since the previous mark to that phase.
    Anything left between the last lap and ``epoch_end`` lands in the
    ``other`` bucket, so the per-phase times always sum to the measured
    epoch total.
    """

    def __init__(self) -> None:
        self.phase_s: Dict[str, float] = {phase: 0.0 for phase in PHASES}
        self.n_epochs = 0
        #: Run-level event counts reported next to the phase times
        #: (:func:`run_profiled` records the TLB model's evaluations
        #: and memo hits, the tenant's TLB classifications and its
        #: sample-table builds here).
        self.counts: Dict[str, int] = {}
        self._epoch_t0: Optional[float] = None
        self._mark: Optional[float] = None

    @property
    def total_s(self) -> float:
        """Total time bracketed by epoch_start/epoch_end so far."""
        return sum(self.phase_s.values())

    def epoch_start(self) -> None:
        """Mark the beginning of an epoch."""
        now = time.perf_counter()  # lint: ignore[R104]
        self._epoch_t0 = now
        self._mark = now

    def lap(self, phase: str) -> None:
        """Charge the time since the previous mark to ``phase``."""
        if self._mark is None:
            raise ValueError("lap() outside an epoch_start/epoch_end bracket")
        if phase not in self.phase_s:
            raise ValueError(f"unknown phase {phase!r}")
        now = time.perf_counter()  # lint: ignore[R104]
        self.phase_s[phase] += now - self._mark
        self._mark = now

    def epoch_end(self) -> None:
        """Close the epoch, folding the remainder into ``other``."""
        if self._epoch_t0 is None or self._mark is None:
            raise ValueError("epoch_end() without epoch_start()")
        now = time.perf_counter()  # lint: ignore[R104]
        self.phase_s["other"] += now - self._mark
        self.n_epochs += 1
        self._epoch_t0 = None
        self._mark = None

    def summary(self) -> Dict[str, object]:
        """Machine-readable profile (the ``BENCH_engine.json`` shape)."""
        total = self.total_s
        return {
            "n_epochs": self.n_epochs,
            "total_s": round(total, 6),
            "phases_s": {
                phase: round(seconds, 6)
                for phase, seconds in self.phase_s.items()
            },
            "phases_pct": {
                phase: round(100.0 * seconds / total, 1) if total else 0.0
                for phase, seconds in self.phase_s.items()
            },
            "counts": dict(self.counts),
        }

    def render(self) -> str:
        """Human-readable per-phase table, hottest phase first."""
        total = self.total_s
        rows: List[Tuple[str, float]] = sorted(
            self.phase_s.items(), key=lambda item: (-item[1], item[0])
        )
        lines = [f"{'phase':<12} {'seconds':>10} {'share':>7}"]
        for phase, seconds in rows:
            share = 100.0 * seconds / total if total else 0.0
            lines.append(f"{phase:<12} {seconds:>10.3f} {share:>6.1f}%")
        lines.append(f"{'total':<12} {total:>10.3f} {100.0 if total else 0.0:>6.1f}%")
        lines.append(f"({self.n_epochs} epochs)")
        for name, count in self.counts.items():
            lines.append(f"{name:<18} {count:>10}")
        return "\n".join(lines)


def run_profiled(
    workload: str,
    machine: str = "A",
    policy: str = "thp",
    config: Optional[SimConfig] = None,
    backing_1g: bool = False,
) -> Tuple[object, PhaseTimer]:
    """Run one benchmark uncached and return its phase timer.

    Returns ``(SimulationResult, PhaseTimer)``; the timer's ``counts``
    hold the run's TLB model evaluations and memo hits, its per-thread
    TLB classifications and the sample tables its policy built.  The run
    bypasses the result cache (timings must reflect real simulation
    work) and the result is bit-identical to what the cached path would
    produce for the same config.  Imports are deferred so this module
    stays importable from the engine without a ``sim`` ->
    ``experiments`` cycle.
    """
    from repro.experiments.runner import RunSpec, build_simulation

    sim = build_simulation(
        RunSpec(workload, machine, policy, backing_1g), config or SimConfig()
    )
    result = sim.run()
    timer = sim.profiler
    timer.counts["tlb_evaluations"] = sim.tlb_model.evaluations
    timer.counts["tlb_memo_hits"] = sim.tlb_model.memo_hits
    timer.counts["tlb_classifications"] = sim.tlb_classifications
    timer.counts["table_builds"] = sim.table_builds
    return result, timer
