"""The rules of ``repro lint``.

``repro lint`` parses every file once into a
:class:`repro.analysis.callgraph.Project` (symbol table + call graph +
transitive write effects) and runs every rule over it: R004 over each
parsed file (``project.files``), R101, R104, R110, R112 and R113 over
the whole program.  Each one has caught a mutant that no test, runtime
check or ``validate`` claim catches (see EXPERIMENTS.md, "Earning the
lint rules"):

* **R004** — *swallowed broad exception*.  ``except Exception``,
  ``except BaseException`` or a bare ``except`` that neither re-raises
  nor logs hides exactly the failures the invariant checker and the
  tests exist to surface: a broad handler around a tenant's epoch
  turned a crashing decider into a quiet OOM kill and a truncated
  result.
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
* **R104** — *whole-program randomness/clock reachability*.  Starting
  from the sim entry points (``Simulation.run`` plus any module-level
  ``_SIM_ENTRY_POINTS`` registry), walk the call graph and flag every
  reachable call site of a wall-clock or random-number sink outside
  the sanctioned generator sites (:data:`SANCTIONED_RNG_FUNCS`),
  reporting the call chain — a clock read in
  ``experiments/scenario_runner.py`` changes results as surely as one
  in the engine.  A deliberate sink (the profiler's timer reads)
  carries ``# lint: ignore[R104]``.
* **R110 / R112 / R113** — the decision-kernel pass
  (:mod:`repro.analysis.decisionflow`): interprocedural decider purity,
  accounting completeness against the ``counters`` metadata, and
  conflict-domain declarations against the ``domain`` metadata.  They
  are structure-driven (they key on a ``Decision`` class hierarchy and
  a ``HANDLERS`` dispatch table) and stay silent on trees without one.

Registries are plain module-level tuples of dotted name fragments; a
fragment matches a function when it appears as a contiguous dotted
segment of the qualified name (``"sim.profile"`` covers
``repro.sim.profile.PhaseTimer.lap``)::

    _RESULT_NEUTRAL = ("sim.profile",)
    _SIM_ENTRY_POINTS = ("Simulation.run",)
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.analysis.callgraph import Effect, FunctionInfo, Project, attr_chain
from repro.analysis.decisionflow import (
    check_accounting,
    check_conflict_domains,
    check_purity,
    decision_flow_model,
)
from repro.analysis.linter import FileContext, Finding

#: Modules protected by R101 even without a registry entry.
DEFAULT_RESULT_NEUTRAL: Tuple[str, ...] = ("sim.profile", "analysis.invariants")

#: Sim entry points assumed by R104 even without a registry entry.
DEFAULT_ENTRY_POINTS: Tuple[str, ...] = ("Simulation.run",)

#: Functions allowed to construct ``np.random`` machinery directly: the
#: deterministic derivation site (``rng_for``) and the state-replay
#: site the stream banks use to resume a captured generator
#: (``rng_from_state``).  Both live in ``repro._util``; R104 skips them.
SANCTIONED_RNG_FUNCS = frozenset({"rng_for", "rng_from_state"})

#: ``time.<name>`` calls R104 treats as wall-clock reads.
_WALL_CLOCK_TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "clock",
    }
)

#: ``datetime``/``date`` methods R104 treats as wall-clock reads.
_WALL_CLOCK_DATE_FUNCS = frozenset({"now", "utcnow", "today"})


def _covers(fragment: str, qualname: str) -> bool:
    """Whether a dotted fragment is a contiguous segment of a qualname."""
    return f".{fragment}." in f".{qualname}."


class Rule:
    """Base class for lint rules: one pass over a parsed Project."""

    rule_id: str = ""
    title: str = ""

    def check(self, project: Project) -> Iterator[Finding]:
        """Yield findings across the whole project."""
        raise NotImplementedError


#: ``logger.<name>`` / ``traceback.<name>`` calls that count as
#: recording what a broad handler caught (R004).
_LOGGING_ATTRS = frozenset(
    {
        "debug",
        "info",
        "warning",
        "warn",
        "error",
        "exception",
        "critical",
        "log",
        "print_exc",
    }
)


class SwallowedException(Rule):
    """R004: broad excepts must re-raise or log what they caught."""

    rule_id = "R004"
    title = "swallowed broad exception"

    def check(self, project: Project) -> Iterator[Finding]:
        for ctx in project.files:
            for node in ast.walk(ctx.tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                if not self._is_broad(node.type) or self._handles(node):
                    continue
                label = "bare except" if node.type is None else "except Exception"
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"{label} neither re-raises nor logs; narrow the exception "
                    "types or record what was swallowed",
                )

    @staticmethod
    def _is_broad(type_node: Optional[ast.AST]) -> bool:
        if type_node is None:
            return True
        if isinstance(type_node, ast.Tuple):
            return any(
                SwallowedException._is_broad(elt) for elt in type_node.elts
            )
        chain = attr_chain(type_node)
        return chain is not None and chain.split(".")[-1] in {
            "Exception",
            "BaseException",
        }

    @staticmethod
    def _handles(handler: ast.ExceptHandler) -> bool:
        for stmt in handler.body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Raise):
                    return True
                if (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Attribute)
                    and sub.func.attr in _LOGGING_ATTRS
                ):
                    return True
        return False


class ResultNeutralPurity(Rule):
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


class ReachableNondeterminism(Rule):
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
            imports = project.imports.get(info.module, {})
            for call, chain in self._sink_calls(info, imports):
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
    def _sink_calls(
        info: FunctionInfo, imports: Dict[str, str]
    ) -> Iterator[Tuple[ast.Call, str]]:
        """Each sink call in ``info`` with its name as spelled.  A call
        is matched with the head of its name resolved through the
        module's ``imports``, so ``randrange`` imported from ``random``
        and ``npr`` bound to ``numpy.random`` are sinks too."""
        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if chain is None:
                continue
            head, dot, rest = chain.partition(".")
            resolved = imports.get(head, head) + dot + rest
            parts = resolved.split(".")
            if resolved.startswith(("np.random.", "numpy.random.")):
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


class _DecisionFlowRule(Rule):
    """Shared driver for R110, R112 and R113: one cached kernel model."""

    checker = staticmethod(lambda model: [])

    def check(self, project: Project) -> Iterator[Finding]:
        yield from type(self).checker(decision_flow_model(project))


class DeciderPurity(_DecisionFlowRule):
    """R110: nothing reachable from decide() mutates simulation state."""

    rule_id = "R110"
    title = "interprocedural decider purity"
    checker = staticmethod(check_purity)


class AccountingCompleteness(_DecisionFlowRule):
    """R112: handler write effects match the declared counter map."""

    rule_id = "R112"
    title = "accounting completeness"
    checker = staticmethod(check_accounting)


class ConflictDomains(_DecisionFlowRule):
    """R113: domain metadata, targets() and executor claims agree."""

    rule_id = "R113"
    title = "conflict-domain declarations"
    checker = staticmethod(check_conflict_domains)


#: Rationale text for ``repro lint --explain RULE``.
RULE_RATIONALE: Dict[str, str] = {
    "R004": (
        "A broad except (Exception, BaseException or bare) that neither\n"
        "re-raises nor logs turns a failure into a plausible-looking\n"
        "result: narrow it to the exceptions the handler can act on, or\n"
        "record what it caught."
    ),
    "R101": (
        "Measurement code (profilers, invariant checkers, anything in a\n"
        "_RESULT_NEUTRAL registry) must be observation-only: a write to\n"
        "simulation state from a timer callback changes the result the\n"
        "instant someone enables profiling."
    ),
    "R104": (
        "Random or wall-clock sinks reachable from a sim entry point\n"
        "break run-to-run determinism; derive generators from rng_for\n"
        "and simulated time from the engine."
    ),
    "R110": (
        "Policies are pure deciders: nothing reachable from decide()\n"
        "may write AddressSpace / allocator / tracker state through the\n"
        "sim argument. The callgraph write-effect fixpoint proves this\n"
        "through any depth of calls; mutations belong in Decision\n"
        "handlers, where conflict claims and accounting see them."
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
    """Rationale + (for R110, R112, R113) the inferred kernel model."""
    rationale = RULE_RATIONALE.get(rule_id)
    if rationale is None:
        return None
    lines = [f"{rule_id}: {rationale}"]
    if project is not None and rule_id in ("R110", "R112", "R113"):
        lines.append("")
        lines.append(decision_flow_model(project).describe())
    return "\n".join(lines)


#: Every rule, in id order.
ALL_RULES: Tuple[type, ...] = (
    SwallowedException,
    ResultNeutralPurity,
    ReachableNondeterminism,
    DeciderPurity,
    AccountingCompleteness,
    ConflictDomains,
)


def default_rules() -> List[Rule]:
    """Fresh instances of every rule."""
    return [rule() for rule in ALL_RULES]


def lint_project(
    project: Project, rules: Optional[Sequence[Rule]] = None
) -> List[Finding]:
    """Run the rules over an already-built project.

    The files the project could not read (E000) or parse (E001) are
    findings too, so a broken file fails the run instead of vanishing
    from it.
    """
    if rules is None:
        rules = default_rules()
    project.analyze()
    by_path: Dict[str, FileContext] = {ctx.path: ctx for ctx in project.files}
    findings: List[Finding] = list(project.errors)
    for rule in rules:
        for finding in rule.check(project):
            ctx = by_path.get(finding.path)
            if ctx is not None and ctx.is_suppressed(finding.line, finding.rule):
                continue
            findings.append(finding)
    findings.sort(key=Finding.sort_key)
    return findings
