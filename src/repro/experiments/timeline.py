"""Per-epoch time-series extraction and ASCII timelines.

The paper's algorithm is a feedback loop: THP creates an imbalance, the
daemon notices it one second later, splits/migrates, and the metrics
recover over the following intervals.  The figures only show end-state
averages; this module exposes the *trajectory* — per-epoch LAR,
imbalance, epoch time and maintenance events — and renders it as
sparkline timelines, which is the quickest way to see a policy converge
(or oscillate, as the reactive component does on SSCA).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.results import SimulationResult

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


@dataclass(frozen=True)
class EpochSeries:
    """Per-epoch time series extracted from one run."""

    epoch_time_s: List[float]
    lar_pct: List[float]
    imbalance_pct: List[float]
    fault_time_s: List[float]
    walk_time_s: List[float]
    splits_2m: List[int]
    collapses_2m: List[int]
    migrated_pages: List[int]

    def __len__(self) -> int:
        return len(self.epoch_time_s)


def epoch_series(result: SimulationResult) -> EpochSeries:
    """Extract the per-epoch trajectory from a simulation result."""
    times, lars, imbs, faults, walks, collapses = [], [], [], [], [], []
    for e in result.bank.epochs:
        times.append(e.duration_s)
        per_controller = e.traffic.sum(axis=0)
        total = float(per_controller.sum())
        lars.append(100.0 * float(np.trace(e.traffic)) / total if total else 100.0)
        mean = per_controller.mean()
        imbs.append(100.0 * float(per_controller.std()) / mean if mean > 0 else 0.0)
        faults.append(e.time_fault_s)
        walks.append(e.time_walk_s)
        collapses.append(e.pages_collapsed_2m)
    splits = [0] * len(times)
    migrated = [0] * len(times)
    # Splits and migrations are policy actions, logged at interval
    # boundaries: count each in the epoch in which it was decided.
    for when, summary in result.action_log:
        cumulative = 0.0
        for i, duration in enumerate(times):
            cumulative += duration
            if cumulative >= when - 1e-9:
                splits[i] += summary.splits_2m
                migrated[i] += summary.migrated_4k + summary.migrated_2m
                break
    return EpochSeries(
        epoch_time_s=times,
        lar_pct=lars,
        imbalance_pct=imbs,
        fault_time_s=faults,
        walk_time_s=walks,
        splits_2m=splits,
        collapses_2m=collapses,
        migrated_pages=migrated,
    )


def sparkline(values: Sequence[float], lo: float = None, hi: float = None) -> str:
    """Render a numeric series as a block-character sparkline."""
    vals = [float(v) for v in values]
    if not vals:
        return ""
    lo = min(vals) if lo is None else lo
    hi = max(vals) if hi is None else hi
    if hi <= lo:
        return _SPARK_CHARS[0] * len(vals)
    out = []
    for v in vals:
        idx = int((v - lo) / (hi - lo) * (len(_SPARK_CHARS) - 1) + 0.5)
        out.append(_SPARK_CHARS[max(0, min(len(_SPARK_CHARS) - 1, idx))])
    return "".join(out)


def render_timeline(result: SimulationResult) -> str:
    """Multi-row sparkline timeline of one run."""
    series = epoch_series(result)
    if len(series) == 0:
        raise ConfigurationError("run has no epochs to render")
    rows: Dict[str, str] = {
        "epoch time": sparkline(series.epoch_time_s),
        "imbalance %": sparkline(series.imbalance_pct, lo=0.0),
        "LAR %": sparkline(series.lar_pct, lo=0.0, hi=100.0),
        "fault time": sparkline(series.fault_time_s, lo=0.0),
        "walk time": sparkline(series.walk_time_s, lo=0.0),
    }
    events = []
    for i in range(len(series)):
        marker = " "
        if series.splits_2m[i] > 0:
            marker = "S"
        elif series.collapses_2m[i] > 0:
            marker = "c"
        elif series.migrated_pages[i] > 0:
            marker = "m"
        events.append(marker)
    rows["actions"] = "".join(events)
    label_w = max(len(k) for k in rows)
    lines = [
        f"{result.workload}@{result.machine} under {result.policy}: "
        f"{result.runtime_s:.2f}s over {len(series)} epochs"
    ]
    for label, spark in rows.items():
        lines.append(f"  {label.rjust(label_w)} {spark}")
    stats = (
        f"  {'range'.rjust(label_w)} "
        f"imbalance {min(series.imbalance_pct):.0f}-{max(series.imbalance_pct):.0f}%"
        f", LAR {min(series.lar_pct):.0f}-{max(series.lar_pct):.0f}%"
        f", epoch {min(series.epoch_time_s):.3f}-{max(series.epoch_time_s):.3f}s"
    )
    lines.append(stats)
    lines.append("  actions: S=split  c=collapse/promote  m=migrate")
    return "\n".join(lines)


def convergence_epoch(
    values: Sequence[float], target: float, below: bool = True
) -> int:
    """First epoch from which the series stays on the target's good side.

    Returns -1 when the series never settles.  Used to quantify how
    fast a policy fixes a metric (e.g. imbalance below 15%).
    """
    vals = [float(v) for v in values]
    for start in range(len(vals)):
        tail = vals[start:]
        if all((v <= target) if below else (v >= target) for v in tail):
            return start
    return -1
