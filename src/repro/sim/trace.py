"""JSONL decision tracing for the policy layer.

Every daemon interval the :class:`~repro.sim.engine.ActionExecutor`
applies typed decisions against the address space; when a tenant owns
a :class:`DecisionTrace` the executor records every decision together
with its outcome — what was decided, by which decider, at what
simulated time, and what actually happened (applied / skipped / bytes
moved).  A tenant owns one exactly when ``REPRO_TRACE_FILE`` names a
file, to which each run appends its records as JSON lines, or when
:func:`run_traced` (``repro trace``) attaches one.

Tracing is **result-neutral**: it never touches simulation state and
the records live on the tenant, not in ``SimulationResult``, so a
traced run is bit-identical to an untraced one and shares its cache
entries.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Tuple

from repro.options import RuntimeOptions
from repro.sim.config import SimConfig

#: Static-analysis registry (rule R101): tracing is observation-only
#: and must have no transitive write effect on simulation state.
_RESULT_NEUTRAL = ("sim.trace",)


class DecisionTrace:
    """Accumulates one run's decision records.

    Each record is a flat JSON-able dict: simulated time, epoch, the
    decider that yielded the decision, the decision payload, and the
    executor's outcome.
    """

    def __init__(self, context: Optional[Dict[str, object]] = None) -> None:
        #: Run identification (workload/machine/policy/seed), written as
        #: a header line ahead of the records.
        self.context: Dict[str, object] = dict(context or {})
        self.records: List[Dict[str, object]] = []

    def record(
        self, time_s: float, epoch: int, source: str, decision, outcome
    ) -> None:
        """Append one decision + outcome record."""
        self.records.append(
            {
                "t": time_s,
                "epoch": epoch,
                "source": source,
                "decision": decision.payload(),
                "applied": outcome.applied,
                "bytes": outcome.bytes_moved,
                "count": outcome.count,
                "reason": outcome.reason,
            }
        )

    def counts(self) -> Dict[str, int]:
        """Number of recorded decisions per decision kind."""
        out: Dict[str, int] = {}
        for rec in self.records:
            kind = rec["decision"]["kind"]  # type: ignore[index]
            out[kind] = out.get(kind, 0) + 1
        return out

    def render(self) -> str:
        """Human-readable per-kind tally."""
        counts = self.counts()
        applied = sum(1 for rec in self.records if rec["applied"])
        lines = [
            f"{len(self.records)} decisions recorded "
            f"({applied} applied, {len(self.records) - applied} skipped)"
        ]
        for kind in sorted(counts):
            lines.append(f"  {kind:<20} {counts[kind]}")
        return "\n".join(lines)

    def write_jsonl(self, path, append: bool = False) -> None:
        """Write a header line plus one JSON line per record."""
        mode = "a" if append else "w"
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(json.dumps({"trace": self.context}) + "\n")
            for rec in self.records:
                fh.write(json.dumps(rec) + "\n")

    def flush_env(self) -> None:
        """Append the records to ``REPRO_TRACE_FILE`` when it is set."""
        path = RuntimeOptions.from_env().trace_file
        if path is not None:
            self.write_jsonl(path, append=True)


def run_traced(
    workload: str,
    machine: str = "A",
    policy: str = "thp",
    config: Optional[SimConfig] = None,
    backing_1g: bool = False,
) -> Tuple[object, DecisionTrace]:
    """Run one benchmark uncached with a decision trace attached.

    Returns ``(SimulationResult, DecisionTrace)``.  The run bypasses
    the result cache (the point is to watch the decisions being made)
    and the result is bit-identical to what the cached path would
    produce for the same config.  Imports are deferred so this module
    stays importable from the engine without a ``sim`` ->
    ``experiments`` cycle.
    """
    from repro.experiments.runner import RunSpec, build_simulation

    config = config or SimConfig()
    sim = build_simulation(RunSpec(workload, machine, policy, backing_1g), config)
    if sim.tracer is None:  # REPRO_TRACE_FILE is unset
        sim.tracer = DecisionTrace(
            {
                "workload": sim.instance.name,
                "machine": sim.machine.name,
                "policy": sim.policy.name,
                "seed": config.seed,
            }
        )
    result = sim.run()
    return result, sim.tracer
