"""Whole-program lint rules R101-R104 and R109-R113 (``repro lint --deep``).

These rules need more than one file at a time: they run over a
:class:`repro.analysis.callgraph.Project` (symbol table + call graph +
transitive write effects) and the units pass
(:mod:`repro.analysis.units`):

* **R101** — *result-neutral purity*.  Measurement components —
  ``sim/profile.py``, ``analysis/invariants.py``, and anything listed
  in a module-level ``_RESULT_NEUTRAL`` registry tuple — must be
  observation-only: no transitive write effect on simulation state
  (``AddressSpace``, engine, allocator) reachable from their arguments
  or from module globals.  Writes one attribute deep into their *own*
  instance (``self.phase_s[...] = t``) are the one sanctioned form of
  bookkeeping.  The two default-protected modules are checked even when
  a tree's registry forgets them, so deleting a registry entry cannot
  silently disable the check.
* **R102** — *unit mismatch*: arithmetic, comparisons, call arguments,
  returns or assignments mixing unrelated dimensions (node ids vs
  thread ids, samples vs bytes, ...).
* **R103** — *missing conversion*: the same mix but within the
  page/byte family (bytes vs 4KB granules vs 2MB/1GB chunks), where the
  fix is a ×512 / ×``PAGE_4K``-style conversion factor; the factor is
  named in the message.
* **R104** — *whole-program randomness/clock reachability*: upgrade of
  the per-file R002.  Starting from the sim entry points
  (``Simulation.run`` plus any module-level ``_SIM_ENTRY_POINTS``
  registry), walk the call graph and flag every reachable call site of
  a wall-clock or random-number sink, reporting the call chain.  Sink
  lines carrying a ``# lint: ignore[R002]`` suppression are treated as
  sanctioned for R104 too — the comment marks the site deliberate, and
  the two rules would otherwise demand duplicate annotations.

* **R109-R113** — the decision-kernel pass
  (:mod:`repro.analysis.decisionflow`): handler exhaustiveness over the
  executor's ``HANDLERS`` table, interprocedural decider purity,
  generator-protocol misuse, accounting completeness against the
  ``counters`` metadata, and conflict-domain declarations against the
  ``domain`` metadata.  These rules are structure-driven (they key on a
  ``Decision`` class hierarchy and a ``HANDLERS`` dispatch table) and
  stay silent on trees without one.

Registries are plain module-level tuples of dotted name fragments; a
fragment matches a function when it appears as a contiguous dotted
segment of the qualified name (``"sim.profile"`` covers
``repro.sim.profile.PhaseTimer.lap``)::

    _RESULT_NEUTRAL = ("sim.profile",)
    _SIM_ENTRY_POINTS = ("Simulation.run",)
"""

from __future__ import annotations

import ast
import pathlib
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.callgraph import (
    GLOBAL_ROOT,
    Effect,
    FunctionInfo,
    Project,
)
from repro.analysis.linter import FileContext, Finding
from repro.analysis.rules import (
    SANCTIONED_RNG_FUNCS,
    _WALL_CLOCK_DATE_FUNCS,
    _WALL_CLOCK_TIME_FUNCS,
    _attr_chain,
)
from repro.analysis.units import UnitChecker, UnitEvent

#: Modules protected by R101 even without a registry entry.
DEFAULT_RESULT_NEUTRAL: Tuple[str, ...] = ("sim.profile", "analysis.invariants")

#: Sim entry points assumed by R104 even without a registry entry.
DEFAULT_ENTRY_POINTS: Tuple[str, ...] = ("Simulation.run",)


def _covers(fragment: str, qualname: str) -> bool:
    """Whether a dotted fragment is a contiguous segment of a qualname."""
    return f".{fragment}." in f".{qualname}."


class DeepRule:
    """Base class for whole-program rules: one pass over a Project."""

    rule_id: str = ""
    title: str = ""

    def check(self, project: Project) -> Iterator[Finding]:
        """Yield findings across the whole project."""
        raise NotImplementedError


class ResultNeutralPurity(DeepRule):
    """R101: registered measurement code must be observation-only."""

    rule_id = "R101"
    title = "result-neutral purity"

    def check(self, project: Project) -> Iterator[Finding]:
        protected = tuple(DEFAULT_RESULT_NEUTRAL) + tuple(
            sorted(project.result_neutral)
        )
        for qualname in sorted(project.functions):
            info = project.functions[qualname]
            fragment = next(
                (f for f in protected if _covers(f, qualname)), None
            )
            if fragment is None:
                continue
            bad = sorted(
                e.describe() for e in self._impure_effects(info)
            )
            if not bad:
                continue
            ctx = project.contexts.get(info.module)
            if ctx is None:
                continue
            yield ctx.finding(
                self.rule_id,
                info.node,
                f"{qualname} is result-neutral (via {fragment!r}) but may "
                f"mutate {', '.join(bad)}; measurement code must not write "
                "simulation state",
            )

    @staticmethod
    def _impure_effects(info: FunctionInfo) -> List[Effect]:
        """Effects that escape the function's own instance."""
        receiver = (
            info.params[0]
            if info.class_name is not None and info.params
            else None
        )
        bad = []
        for effect in info.effects:
            if effect.root == receiver and len(effect.path) <= 1:
                continue  # own-instance bookkeeping (self.phase_s[...] = t)
            bad.append(effect)
        return bad


class _UnitRule(DeepRule):
    """Shared driver for the two unit rules (classified per event)."""

    #: Which family of events this subclass reports.
    conversion_events: bool = False

    def check(self, project: Project) -> Iterator[Finding]:
        checker = _unit_checker(project)
        for info, event in checker.check():
            if event.is_conversion != self.conversion_events:
                continue
            ctx = project.contexts.get(info.module)
            if ctx is None:
                continue
            yield ctx.finding(
                self.rule_id, event.node, self._message(info, event)
            )

    def _message(self, info: FunctionInfo, event: UnitEvent) -> str:
        raise NotImplementedError


def _unit_checker(project: Project) -> UnitChecker:
    """One UnitChecker per analyzed project (R102 and R103 share it)."""
    cached = getattr(project, "_unit_checker", None)
    if cached is None:
        project.analyze()
        cached = UnitChecker(project)
        project._unit_checker = cached
    return cached


class UnitMismatch(_UnitRule):
    """R102: mixing unrelated dimensions (node vs tid, samples vs bytes)."""

    rule_id = "R102"
    title = "unit mismatch"
    conversion_events = False

    def _message(self, info: FunctionInfo, event: UnitEvent) -> str:
        return (
            f"unit mismatch in {info.name}(): {event.detail} "
            f"({event.left} vs {event.right})"
        )


class MissingConversion(_UnitRule):
    """R103: page/byte-family mix missing a ×512/×PAGE_4K conversion."""

    rule_id = "R103"
    title = "missing page-size conversion"
    conversion_events = True

    def _message(self, info: FunctionInfo, event: UnitEvent) -> str:
        return (
            f"missing conversion in {info.name}(): {event.detail} "
            f"({event.left} vs {event.right}){event.suggestion()}"
        )


class ReachableNondeterminism(DeepRule):
    """R104: random/clock sinks reachable from sim entry points."""

    rule_id = "R104"
    title = "reachable randomness / wall-clock"

    def check(self, project: Project) -> Iterator[Finding]:
        project.analyze()
        entries = self._resolve_entries(project)
        chains = project.reachable_from(entries)
        for qualname in sorted(chains):
            info = project.functions[qualname]
            if info.name in SANCTIONED_RNG_FUNCS:
                continue  # a sanctioned RNG construction/replay site
            ctx = project.contexts.get(info.module)
            if ctx is None:
                continue
            for call, chain in self._sink_calls(info):
                line = getattr(call, "lineno", 0)
                if ctx.is_suppressed(line, "R002"):
                    continue  # sanctioned sink (see module docstring)
                via = " -> ".join(
                    _short_qual(q) for q in chains[qualname]
                )
                yield ctx.finding(
                    self.rule_id,
                    call,
                    f"{chain}() reachable from sim entry point via {via}; "
                    "derive generators from repro._util.rng_for and "
                    "simulated time from the engine",
                )

    @staticmethod
    def _resolve_entries(project: Project) -> List[str]:
        fragments = tuple(DEFAULT_ENTRY_POINTS) + tuple(
            sorted(project.entry_points)
        )
        return [
            qualname
            for qualname in sorted(project.functions)
            if any(_covers(f, qualname) for f in fragments)
        ]

    @staticmethod
    def _sink_calls(info: FunctionInfo) -> Iterator[Tuple[ast.Call, str]]:
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if chain is None:
                continue
            parts = chain.split(".")
            if chain.startswith(("np.random.", "numpy.random.")):
                yield node, chain
            elif parts[0] == "random" and len(parts) > 1:
                yield node, chain
            elif parts[0] == "time" and parts[-1] in _WALL_CLOCK_TIME_FUNCS:
                yield node, chain
            elif parts[-1] in _WALL_CLOCK_DATE_FUNCS and any(
                p in {"datetime", "date", "Date"} for p in parts[:-1]
            ):
                yield node, chain


def _short_qual(qualname: str) -> str:
    """Last two dotted components (``Simulation.run``) for messages."""
    return ".".join(qualname.split(".")[-2:])


class _DecisionFlowRule(DeepRule):
    """Shared driver for R109-R113: one cached decision-kernel model."""

    checker = staticmethod(lambda model: [])

    def check(self, project: Project) -> Iterator[Finding]:
        from repro.analysis.decisionflow import decision_flow_model

        model = decision_flow_model(project)
        yield from type(self).checker(model)


class HandlerExhaustiveness(_DecisionFlowRule):
    """R109: every Decision subclass has a handler, and vice versa."""

    rule_id = "R109"
    title = "decision handler exhaustiveness"

    @staticmethod
    def checker(model):
        from repro.analysis.decisionflow import check_exhaustiveness

        return check_exhaustiveness(model)


class DeciderPurity(_DecisionFlowRule):
    """R110: nothing reachable from decide() mutates simulation state."""

    rule_id = "R110"
    title = "interprocedural decider purity"

    @staticmethod
    def checker(model):
        from repro.analysis.decisionflow import check_purity

        return check_purity(model)


class GeneratorProtocol(_DecisionFlowRule):
    """R111: decider generators speak the yield/send protocol correctly."""

    rule_id = "R111"
    title = "generator-protocol misuse"

    @staticmethod
    def checker(model):
        from repro.analysis.decisionflow import check_generator_protocol

        return check_generator_protocol(model)


class AccountingCompleteness(_DecisionFlowRule):
    """R112: handler write effects match the declared counter map."""

    rule_id = "R112"
    title = "accounting completeness"

    @staticmethod
    def checker(model):
        from repro.analysis.decisionflow import check_accounting

        return check_accounting(model)


class ConflictDomains(_DecisionFlowRule):
    """R113: domain metadata, targets() and executor claims agree."""

    rule_id = "R113"
    title = "conflict-domain declarations"

    @staticmethod
    def checker(model):
        from repro.analysis.decisionflow import check_conflict_domains

        return check_conflict_domains(model)


#: Rationale text for ``repro lint --deep --explain RULE``.
RULE_RATIONALE: Dict[str, str] = {
    "R101": (
        "Measurement code (profilers, invariant checkers, anything in a\n"
        "_RESULT_NEUTRAL registry) must be observation-only: a write to\n"
        "simulation state from a timer callback changes the result the\n"
        "instant someone enables profiling."
    ),
    "R102": (
        "Arithmetic mixing unrelated dimensions (node ids vs thread ids,\n"
        "samples vs bytes) is meaningless even when the integers happen\n"
        "to line up; the units pass tracks dimensions through the call\n"
        "graph and flags the mix site."
    ),
    "R103": (
        "Page/byte-family mixes (bytes vs 4KB granules vs 2MB chunks)\n"
        "need an explicit x512 / xPAGE_4K conversion; the finding names\n"
        "the factor that makes the expression dimensionally sound."
    ),
    "R104": (
        "Random or wall-clock sinks reachable from a sim entry point\n"
        "break run-to-run determinism; derive generators from rng_for\n"
        "and simulated time from the engine."
    ),
    "R109": (
        "Every concrete Decision subclass needs an entry in the\n"
        "executor's HANDLERS table (and every _apply_* handler must be\n"
        "reachable through it): a decision without a handler is a\n"
        "runtime SimulationError waiting for the first policy that\n"
        "yields it."
    ),
    "R110": (
        "Policies are pure deciders: nothing reachable from decide()\n"
        "may write AddressSpace / allocator / tracker state through the\n"
        "sim argument. The callgraph write-effect fixpoint proves this\n"
        "through any depth of calls; mutations belong in Decision\n"
        "handlers, where conflict claims and accounting see them."
    ),
    "R111": (
        "Decider generators speak a strict protocol: yield Decision\n"
        "objects only, never return a value run_interval would drop,\n"
        "and bind the Outcome before accounting budgets — a discarded\n"
        "Outcome means the budget counts work that may never have\n"
        "happened."
    ),
    "R112": (
        "Each Decision declares the PolicyActionSummary counters its\n"
        "handler must touch; handler write effects are matched against\n"
        "the declaration both ways, and every conserved field the\n"
        "invariant checker reconciles must be declared by some\n"
        "decision — unaccounted work breaks conservation at runtime."
    ),
    "R113": (
        "Each Decision declares its conflict domain (page / thp / pt /\n"
        "none); the literal target kinds in targets() must agree, and\n"
        "the executor's CONFLICT_DOMAINS must equal exactly the set of\n"
        "declared non-none domains — otherwise first-member-wins\n"
        "arbitration has silent gaps."
    ),
}


def explain_rule(rule_id: str, project: Optional[Project] = None) -> Optional[str]:
    """Rationale + (for R109-R113) the inferred decision-kernel model."""
    rationale = RULE_RATIONALE.get(rule_id)
    if rationale is None:
        return None
    lines = [f"{rule_id}: {rationale}"]
    if project is not None and rule_id in (
        "R109",
        "R110",
        "R111",
        "R112",
        "R113",
    ):
        from repro.analysis.decisionflow import decision_flow_model

        lines.append("")
        lines.append(decision_flow_model(project).describe())
    return "\n".join(lines)


#: Every deep rule, in id order.
ALL_DEEP_RULES: Tuple[type, ...] = (
    ResultNeutralPurity,
    UnitMismatch,
    MissingConversion,
    ReachableNondeterminism,
    HandlerExhaustiveness,
    DeciderPurity,
    GeneratorProtocol,
    AccountingCompleteness,
    ConflictDomains,
)


def default_deep_rules() -> List[DeepRule]:
    """Fresh instances of every deep rule."""
    return [rule() for rule in ALL_DEEP_RULES]


def deep_lint_project(
    project: Project, rules: Optional[Sequence[DeepRule]] = None
) -> List[Finding]:
    """Run the deep rules over an already-built project."""
    if rules is None:
        rules = default_deep_rules()
    project.analyze()
    by_path: Dict[str, FileContext] = {
        ctx.path: ctx for ctx in project.contexts.values()
    }
    findings: List[Finding] = []
    for rule in rules:
        for finding in rule.check(project):
            ctx = by_path.get(finding.path)
            if ctx is not None and ctx.is_suppressed(finding.line, finding.rule):
                continue
            findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return findings


def deep_lint_paths(
    paths: Sequence[pathlib.Path],
    rules: Optional[Sequence[DeepRule]] = None,
) -> List[Finding]:
    """Build a project from paths and run the deep rules over it."""
    project = Project.from_paths(paths)
    return deep_lint_project(project, rules)


def deep_lint_sources(
    sources: Dict[str, str],
    rules: Optional[Sequence[DeepRule]] = None,
) -> List[Finding]:
    """Deep-lint an in-memory ``{path: source}`` tree (tests)."""
    project = Project.from_sources(sources)
    return deep_lint_project(project, rules)
