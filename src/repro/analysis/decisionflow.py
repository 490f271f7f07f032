"""Decision-kernel contract analysis (rules R110, R112 and R113).

Every placement policy is a pure decider: ``decide()`` yields typed
:class:`~repro.sim.decisions.Decision` objects, one
:class:`~repro.sim.engine.ActionExecutor` applies them, and an
:class:`~repro.sim.decisions.Outcome` is sent back into the generator.
This module checks three contracts of that architecture statically, on
top of the callgraph's symbol table and transitive write-effect
fixpoint (:mod:`repro.analysis.callgraph`):

* **R110 — interprocedural decider purity.**  No function reachable
  from a policy's ``decide()`` may write simulation state through the
  ``sim`` parameter (or module globals).  The write-effect fixpoint
  sees a mutation through any depth of calls, including plain
  attribute writes such as ``sim.thp.alloc_enabled = False`` that no
  runtime check observes.  Writes whose attribute path crosses an
  underscore-private component are sanctioned — they are
  version-keyed memo caches (``AddressSpace._home_map``), invisible to
  results by construction.
* **R112 — accounting completeness.**  Each ``Decision`` class declares
  the :class:`PolicyActionSummary` counters its handler must touch
  (``counters`` class metadata); the analyzer matches the declaration
  against the handler's inferred write effects both ways, and checks
  the union of declared counters covers every conserved field the
  invariant checker reconciles (``_ACTION_FIELDS``).
* **R113 — conflict-domain declarations.**  Each ``Decision`` class
  declares its conflict domain (``page`` / ``thp`` / ``pt`` / ``none``)
  as ``domain`` class metadata; the analyzer checks the literal target
  kinds in ``targets()`` agree with the declaration, and that the
  executor's ``CONFLICT_DOMAINS`` claim coverage equals exactly the set
  of declared non-``none`` domains.  A decision whose ``targets()``
  claims the wrong kind of key slips past the stack's first-member-wins
  arbitration, which no single-decider run can notice.

All three rules are structure-driven: a tree with no ``Decision``
hierarchy or no ``HANDLERS`` table is simply out of scope, so ordinary
fixture trees stay clean.  Suppression uses the standard
``# lint: ignore[R110]`` comments.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.callgraph import (
    GLOBAL_ROOT,
    Effect,
    FunctionInfo,
    Project,
)
from repro.analysis.linter import Finding

#: Valid values of the ``domain`` class metadata (R113).
VALID_DOMAINS: Tuple[str, ...] = ("page", "thp", "pt", "none")

#: Domains whose decisions mutate backing state; their handlers must
#: account work (R112).
MUTATING_DOMAINS: Tuple[str, ...] = ("page", "pt")

#: Class basename anchoring the decision hierarchy.
DECISION_BASE = "Decision"

#: Class basename anchoring the policy hierarchy (R110 roots).
POLICY_BASE = "PlacementPolicy"


# ----------------------------------------------------------------------
# Parsed structures
# ----------------------------------------------------------------------
@dataclass
class DecisionClassInfo:
    """One concrete ``Decision`` subclass and its declared metadata."""

    qualname: str
    module: str
    node: ast.ClassDef
    #: Declared conflict domain, or None when the class body has none.
    domain: Optional[str] = None
    domain_node: Optional[ast.AST] = None
    #: Declared summary counters, or None when the class body has none.
    counters: Optional[Tuple[str, ...]] = None
    counters_node: Optional[ast.AST] = None
    #: Literal target-kind strings parsed from ``targets()`` returns.
    target_kinds: Tuple[str, ...] = ()
    #: Whether a ``targets()`` body was found (own body or inherited).
    has_targets: bool = False
    #: Whether ``targets()`` contains returns we could not parse into
    #: literal kinds (dynamic construction); kind checks are skipped.
    opaque_targets: bool = False

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]

    def declared_counters(self) -> Tuple[str, ...]:
        """Counters, treating an absent declaration as the base () ."""
        return self.counters if self.counters is not None else ()


@dataclass
class ExecutorInfo:
    """One class carrying a ``HANDLERS`` decision-dispatch table."""

    qualname: str
    module: str
    node: ast.ClassDef
    handlers_node: ast.AST
    #: decision class qualname -> handler method name
    handlers: Dict[str, str] = field(default_factory=dict)
    conflict_domains: Optional[Tuple[str, ...]] = None
    conflict_domains_node: Optional[ast.AST] = None


# ----------------------------------------------------------------------
# AST helpers
# ----------------------------------------------------------------------
def _own_nodes(func_node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested defs."""
    stack = list(getattr(func_node, "body", []))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _class_body_assign(
    node: ast.ClassDef, name: str
) -> Tuple[Optional[ast.AST], Optional[ast.AST]]:
    """Find ``name = value`` / ``name: T = value`` in a class body."""
    for stmt in node.body:
        if (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == name
            and stmt.value is not None
        ):
            return stmt, stmt.value
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == name
        ):
            return stmt, stmt.value
    return None, None


def _string_tuple(value: Optional[ast.AST]) -> Optional[Tuple[str, ...]]:
    """Parse a tuple/list literal of string constants, else None."""
    if not isinstance(value, (ast.Tuple, ast.List)):
        return None
    out: List[str] = []
    for elt in value.elts:
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
            out.append(elt.value)
        else:
            return None
    return tuple(out)


def _short(qualname: str) -> str:
    """Last two dotted components, for chains and messages."""
    return ".".join(qualname.split(".")[-2:])


# ----------------------------------------------------------------------
# The model
# ----------------------------------------------------------------------
class DecisionFlowModel:
    """Parsed decision-kernel structure of one project.

    Built once per project (cached by :func:`decision_flow_model`) and
    shared by the three rules: the decision hierarchy with its metadata,
    every executor's dispatch table, the policy ``decide()`` roots, the
    summary's field set and the invariant checker's conserved fields.
    """

    def __init__(self, project: Project) -> None:
        self.project = project
        project.analyze()
        #: qualname -> info for every concrete Decision subclass.
        self.decisions: Dict[str, DecisionClassInfo] = {}
        #: Hierarchy roots (classes literally named ``Decision``).
        self.decision_bases: List[str] = []
        self.executors: List[ExecutorInfo] = []
        #: ``decide()`` qualnames of PlacementPolicy subclasses.
        self.policy_roots: List[str] = []
        #: PolicyActionSummary dataclass fields (None: class not in tree,
        #: fields are then not filtered).
        self.summary_fields: Optional[Tuple[str, ...]] = None
        #: Conserved fields the invariant checker reconciles, with the
        #: module carrying the declaration (for finding anchors).
        self.action_fields: Tuple[str, ...] = ()
        self.action_fields_module: Optional[str] = None
        self.action_fields_node: Optional[ast.AST] = None
        self._subclasses = self._subclass_map()
        self._collect_decisions()
        self._collect_executors()
        self._collect_policy_roots()
        self._collect_summary_fields()
        self._collect_action_fields()

    # -- hierarchy ------------------------------------------------------
    def _resolve_base(self, module: str, base: ast.AST) -> Optional[str]:
        if isinstance(base, ast.Name):
            name = base.id
        elif isinstance(base, ast.Attribute):
            name = base.attr
        else:
            return None
        project = self.project
        local = project.module_symbols.get(module, {}).get(name)
        if local is None:
            local = project.imports.get(module, {}).get(name)
        if local is None:
            return None
        resolved = project._lookup(local)
        return resolved if resolved in project.classes else None

    def _subclass_map(self) -> Dict[str, List[str]]:
        """Direct subclass edges: base qualname -> subclass qualnames."""
        edges: Dict[str, List[str]] = {}
        for qual, node in self.project.classes.items():
            module = qual.rsplit(".", 1)[0]
            for base in node.bases:
                parent = self._resolve_base(module, base)
                if parent is not None:
                    edges.setdefault(parent, []).append(qual)
        return edges

    def _transitive_subclasses(self, roots: Sequence[str]) -> List[str]:
        seen: Set[str] = set()
        queue = list(roots)
        while queue:
            current = queue.pop(0)
            for child in self._subclasses.get(current, ()):
                if child not in seen:
                    seen.add(child)
                    queue.append(child)
        return sorted(seen)

    # -- decisions ------------------------------------------------------
    def _collect_decisions(self) -> None:
        self.decision_bases = sorted(
            qual
            for qual in self.project.classes
            if qual.rsplit(".", 1)[-1] == DECISION_BASE
        )
        for qual in self._transitive_subclasses(self.decision_bases):
            node = self.project.classes[qual]
            module = qual.rsplit(".", 1)[0]
            info = DecisionClassInfo(qualname=qual, module=module, node=node)
            info.domain_node, domain_value = _class_body_assign(node, "domain")
            if isinstance(domain_value, ast.Constant) and isinstance(
                domain_value.value, str
            ):
                info.domain = domain_value.value
            info.counters_node, counters_value = _class_body_assign(
                node, "counters"
            )
            info.counters = _string_tuple(counters_value)
            self._parse_targets(info)
            self.decisions[qual] = info

    def _parse_targets(self, info: DecisionClassInfo) -> None:
        """Literal target kinds from the nearest ``targets()`` body.

        Accepts a tuple literal of ``(kind, key)`` pairs and, for batch
        decisions, ``tuple((kind, key) for ...)`` with a literal kind.
        """
        node = self._find_method(info.qualname, "targets")
        if node is None:
            return
        info.has_targets = True
        kinds: List[str] = []
        for sub in _own_nodes(node):
            if not isinstance(sub, ast.Return) or sub.value is None:
                continue
            value = sub.value
            if isinstance(value, ast.Tuple):
                elts = value.elts
            elif (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id == "tuple"
                and len(value.args) == 1
                and not value.keywords
                and isinstance(value.args[0], (ast.GeneratorExp, ast.ListComp))
            ):
                elts = [value.args[0].elt]
            else:
                if not (isinstance(value, ast.Constant) and value.value is None):
                    info.opaque_targets = True
                continue
            for elt in elts:
                if (
                    isinstance(elt, ast.Tuple)
                    and elt.elts
                    and isinstance(elt.elts[0], ast.Constant)
                    and isinstance(elt.elts[0].value, str)
                ):
                    kinds.append(elt.elts[0].value)
                else:
                    info.opaque_targets = True
        info.target_kinds = tuple(sorted(set(kinds)))

    def _find_method(self, qual_cls: str, name: str) -> Optional[ast.AST]:
        """Method body for a class, walking up the base chain."""
        seen: Set[str] = set()
        queue = [qual_cls]
        while queue:
            current = queue.pop(0)
            if current in seen:
                continue
            seen.add(current)
            func = self.project.functions.get(f"{current}.{name}")
            if func is not None:
                return func.node
            node = self.project.classes.get(current)
            if node is None:
                continue
            module = current.rsplit(".", 1)[0]
            for base in node.bases:
                parent = self._resolve_base(module, base)
                if parent is not None:
                    queue.append(parent)
        return None

    # -- executors ------------------------------------------------------
    def _collect_executors(self) -> None:
        for qual in sorted(self.project.classes):
            node = self.project.classes[qual]
            handlers_node, handlers_value = _class_body_assign(
                node, "HANDLERS"
            )
            if handlers_node is None or not isinstance(
                handlers_value, ast.Dict
            ):
                continue
            module = qual.rsplit(".", 1)[0]
            executor = ExecutorInfo(
                qualname=qual,
                module=module,
                node=node,
                handlers_node=handlers_node,
            )
            for key, value in zip(
                handlers_value.keys, handlers_value.values
            ):
                key_qual = self._resolve_base(module, key)
                method = self._handler_name(value)
                if key_qual in self.decisions and method is not None:
                    executor.handlers[key_qual] = method
            domains_node, domains_value = _class_body_assign(
                node, "CONFLICT_DOMAINS"
            )
            executor.conflict_domains_node = domains_node
            executor.conflict_domains = _string_tuple(domains_value)
            self.executors.append(executor)

    @staticmethod
    def _handler_name(value: ast.AST) -> Optional[str]:
        if isinstance(value, ast.Name):
            return value.id
        if isinstance(value, ast.Attribute):
            return value.attr
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            return value.value
        return None

    # -- policies and summary -------------------------------------------
    def _collect_policy_roots(self) -> None:
        bases = [
            qual
            for qual in self.project.classes
            if qual.rsplit(".", 1)[-1] == POLICY_BASE
        ]
        classes = sorted(bases) + self._transitive_subclasses(bases)
        roots: List[str] = []
        for qual_cls in classes:
            decide = f"{qual_cls}.decide"
            if decide in self.project.functions and decide not in roots:
                roots.append(decide)
        self.policy_roots = roots

    def _collect_summary_fields(self) -> None:
        for qual in sorted(self.project.classes):
            if qual.rsplit(".", 1)[-1] != "PolicyActionSummary":
                continue
            fields: List[str] = []
            for stmt in self.project.classes[qual].body:
                if not isinstance(stmt, ast.AnnAssign):
                    continue
                if not isinstance(stmt.target, ast.Name):
                    continue
                annotation = ast.unparse(stmt.annotation)
                if "ClassVar" in annotation:
                    continue
                fields.append(stmt.target.id)
            self.summary_fields = tuple(fields)
            return

    def _collect_action_fields(self) -> None:
        for module, ctx in sorted(self.project.contexts.items()):
            for stmt in ctx.tree.body:
                if (
                    isinstance(stmt, ast.Assign)
                    and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)
                    and stmt.targets[0].id == "_ACTION_FIELDS"
                ):
                    parsed = _string_tuple(stmt.value)
                    if parsed is not None:
                        self.action_fields = parsed
                        self.action_fields_module = module
                        self.action_fields_node = stmt
                        return

    def domain_of(self, qual_decision: str) -> str:
        info = self.decisions.get(qual_decision)
        if info is None or info.domain is None:
            return "none"
        return info.domain

    # -- --explain support ----------------------------------------------
    def describe(self) -> str:
        """Human-readable model summary for ``--explain R110/R112/R113``."""
        lines = ["decision-kernel model:"]
        lines.append(f"  decision classes ({len(self.decisions)}):")
        for qual in sorted(self.decisions):
            info = self.decisions[qual]
            counters = ",".join(info.declared_counters()) or "-"
            lines.append(
                f"    {_short(qual)}: domain={info.domain or '?'} "
                f"counters={counters}"
            )
        for executor in self.executors:
            lines.append(
                f"  executor {_short(executor.qualname)}: "
                f"{len(executor.handlers)} handler(s), "
                f"domains={','.join(executor.conflict_domains or ()) or '?'}"
            )
        if self.policy_roots:
            lines.append(
                "  policy decide() roots: "
                + ", ".join(_short(q) for q in self.policy_roots)
            )
        if self.action_fields:
            lines.append(
                "  conserved fields: " + ", ".join(self.action_fields)
            )
        return "\n".join(lines)


def decision_flow_model(project: Project) -> DecisionFlowModel:
    """One cached model per analyzed project (all three rules share it)."""
    cached = getattr(project, "_decisionflow_model", None)
    if cached is None:
        cached = DecisionFlowModel(project)
        project._decisionflow_model = cached
    return cached


# ----------------------------------------------------------------------
# Finding helpers
# ----------------------------------------------------------------------
def _finding(
    model: DecisionFlowModel,
    rule: str,
    module: str,
    node: Optional[ast.AST],
    message: str,
    chain: Tuple[str, ...] = (),
) -> Optional[Finding]:
    ctx = model.project.contexts.get(module)
    if ctx is None:
        return None
    return ctx.finding(rule, node if node is not None else ctx.tree, message,
                       chain=chain)


def _emit(findings: List[Finding], finding: Optional[Finding]) -> None:
    if finding is not None:
        findings.append(finding)


# ----------------------------------------------------------------------
# R110: interprocedural decider purity
# ----------------------------------------------------------------------
def _is_sanctioned_path(path: Tuple[str, ...]) -> bool:
    """Underscore-private path components mark internal memo caches."""
    return any(part.startswith("_") for part in path)


def _sim_param(info: FunctionInfo) -> Optional[str]:
    if "sim" in info.params:
        return "sim"
    if info.class_name is not None and len(info.params) > 1:
        return info.params[1]
    if info.class_name is None and info.params:
        return info.params[0]
    return None


def _culprit_chain(
    model: DecisionFlowModel, root: str, effect: Effect
) -> Tuple[str, ...]:
    """Shortest call chain to a function directly causing the effect."""
    chains = model.project.reachable_from([root])
    best: Tuple[str, ...] = (root,)
    for qualname, chain in sorted(chains.items()):
        info = model.project.functions[qualname]
        for direct in info.direct_effects:
            if direct.path and effect.path and direct.path[-1] == effect.path[-1]:
                if len(chain) > len(best):
                    best = chain
                break
    return tuple(_short(q) for q in best)


def check_purity(model: DecisionFlowModel) -> List[Finding]:
    """R110: nothing reachable from decide() writes simulation state."""
    findings: List[Finding] = []
    for root in model.policy_roots:
        info = model.project.functions[root]
        sim = _sim_param(info)
        bad: List[Effect] = []
        for effect in sorted(info.effects, key=lambda e: (e.root, e.path)):
            if effect.root == GLOBAL_ROOT:
                bad.append(effect)
            elif (
                sim is not None
                and effect.root == sim
                and not _is_sanctioned_path(effect.path)
            ):
                bad.append(effect)
        for effect in bad:
            chain = _culprit_chain(model, root, effect)
            _emit(
                findings,
                _finding(
                    model,
                    "R110",
                    info.module,
                    info.node,
                    f"{_short(root)}() may mutate {effect.describe()} "
                    f"(via {' -> '.join(chain)}); deciders are pure — "
                    "yield a Decision and let the executor apply it",
                    chain=chain,
                ),
            )
    return findings


# ----------------------------------------------------------------------
# R112: accounting completeness
# ----------------------------------------------------------------------
def _summary_param(info: FunctionInfo) -> Optional[str]:
    if "summary" in info.params:
        return "summary"
    if len(info.params) >= 3:
        return info.params[2]
    return None


def _handler_writes(
    model: DecisionFlowModel, info: FunctionInfo
) -> Set[str]:
    """Summary fields a handler's transitive effects touch."""
    param = _summary_param(info)
    if param is None:
        return set()
    touched = {
        effect.path[0]
        for effect in info.effects
        if effect.root == param and effect.path
        and not effect.path[0].startswith("_")
    }
    if model.summary_fields is not None:
        # Name-based dynamic dispatch pollutes effects with unrelated
        # merge()/add_note() implementations; only real summary fields
        # count.
        touched &= set(model.summary_fields)
    return touched


def check_accounting(model: DecisionFlowModel) -> List[Finding]:
    """R112: handler write effects match the declared counter map."""
    findings: List[Finding] = []
    declared_union: Set[str] = set()
    have_handlers = False
    for executor in model.executors:
        for qual_decision, method in sorted(executor.handlers.items()):
            decision = model.decisions[qual_decision]
            handler = model.project.functions.get(
                f"{executor.qualname}.{method}"
            )
            if handler is None:
                continue  # the HANDLERS value names no executor method
            have_handlers = True
            declared = set(decision.declared_counters())
            declared_union |= declared
            if model.summary_fields is not None:
                for counter in sorted(
                    declared - set(model.summary_fields)
                ):
                    _emit(
                        findings,
                        _finding(
                            model,
                            "R112",
                            decision.module,
                            decision.counters_node or decision.node,
                            f"{decision.name}.counters declares "
                            f"{counter!r}, which is not a "
                            "PolicyActionSummary field",
                        ),
                    )
            actual = _handler_writes(model, handler)
            for counter in sorted(actual - declared):
                _emit(
                    findings,
                    _finding(
                        model,
                        "R112",
                        executor.module,
                        handler.node,
                        f"handler {_short(executor.qualname)}.{method} "
                        f"touches summary.{counter}, which "
                        f"{decision.name}.counters does not declare",
                    ),
                )
            for counter in sorted(declared - actual):
                _emit(
                    findings,
                    _finding(
                        model,
                        "R112",
                        executor.module,
                        handler.node,
                        f"{decision.name}.counters declares {counter!r} "
                        f"but handler {_short(executor.qualname)}.{method} "
                        "never touches it",
                    ),
                )
            if (
                decision.domain in MUTATING_DOMAINS
                and not declared
                and not actual
            ):
                _emit(
                    findings,
                    _finding(
                        model,
                        "R112",
                        executor.module,
                        handler.node,
                        f"handler {_short(executor.qualname)}.{method} "
                        f"applies a {decision.domain!r}-domain decision "
                        "but accounts no summary counter; the invariant "
                        "checker cannot reconcile its work",
                    ),
                )
    if (
        have_handlers
        and model.action_fields
        and model.action_fields_module is not None
    ):
        for conserved in model.action_fields:
            if conserved not in declared_union:
                _emit(
                    findings,
                    _finding(
                        model,
                        "R112",
                        model.action_fields_module,
                        model.action_fields_node,
                        f"conserved field {conserved!r} is reconciled by "
                        "the invariant checker but declared by no "
                        "Decision.counters",
                    ),
                )
    return findings


# ----------------------------------------------------------------------
# R113: conflict-domain declarations
# ----------------------------------------------------------------------
def check_conflict_domains(model: DecisionFlowModel) -> List[Finding]:
    """R113: metadata, targets() and executor claim coverage agree."""
    findings: List[Finding] = []
    if not model.decisions:
        return findings
    for qual in sorted(model.decisions):
        info = model.decisions[qual]
        if info.domain is None:
            _emit(
                findings,
                _finding(
                    model,
                    "R113",
                    info.module,
                    info.node,
                    f"Decision subclass {info.name} does not declare its "
                    "conflict domain (domain = \"page\" | \"thp\" | \"pt\" "
                    "| \"none\")",
                ),
            )
            continue
        if info.domain not in VALID_DOMAINS:
            _emit(
                findings,
                _finding(
                    model,
                    "R113",
                    info.module,
                    info.domain_node or info.node,
                    f"{info.name}.domain is {info.domain!r}; valid domains "
                    f"are {', '.join(VALID_DOMAINS)}",
                ),
            )
            continue
        if info.opaque_targets:
            continue
        kinds = set(info.target_kinds)
        if info.domain == "none":
            if kinds:
                _emit(
                    findings,
                    _finding(
                        model,
                        "R113",
                        info.module,
                        info.domain_node or info.node,
                        f"{info.name} declares domain 'none' but targets() "
                        f"claims {', '.join(sorted(kinds))} keys",
                    ),
                )
        else:
            if not info.has_targets or not kinds:
                _emit(
                    findings,
                    _finding(
                        model,
                        "R113",
                        info.module,
                        info.domain_node or info.node,
                        f"{info.name} declares domain {info.domain!r} but "
                        "targets() claims nothing; the executor cannot "
                        "arbitrate it",
                    ),
                )
            elif kinds != {info.domain}:
                _emit(
                    findings,
                    _finding(
                        model,
                        "R113",
                        info.module,
                        info.domain_node or info.node,
                        f"{info.name} declares domain {info.domain!r} but "
                        f"targets() claims "
                        f"{', '.join(sorted(kinds))} keys",
                    ),
                )
    for executor in model.executors:
        declared_domains = {
            model.domain_of(qual)
            for qual in executor.handlers
        } - {"none"}
        declared_domains &= set(VALID_DOMAINS)
        if executor.conflict_domains is None:
            if declared_domains:
                _emit(
                    findings,
                    _finding(
                        model,
                        "R113",
                        executor.module,
                        executor.handlers_node,
                        f"{_short(executor.qualname)} declares no "
                        "CONFLICT_DOMAINS; its claim logic must cover "
                        f"{', '.join(sorted(declared_domains))}",
                    ),
                )
            continue
        claimed = set(executor.conflict_domains)
        if claimed != declared_domains:
            missing = sorted(declared_domains - claimed)
            extra = sorted(claimed - declared_domains)
            detail = []
            if missing:
                detail.append(f"missing {', '.join(missing)}")
            if extra:
                detail.append(f"unclaimed-by-decisions {', '.join(extra)}")
            _emit(
                findings,
                _finding(
                    model,
                    "R113",
                    executor.module,
                    executor.conflict_domains_node,
                    f"{_short(executor.qualname)}.CONFLICT_DOMAINS "
                    f"({', '.join(sorted(claimed)) or 'empty'}) does not "
                    "match the domains its decisions declare "
                    f"({', '.join(sorted(declared_domains)) or 'empty'}): "
                    + "; ".join(detail),
                ),
            )
    return findings
