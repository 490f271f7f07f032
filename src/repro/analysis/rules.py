"""Repo-specific lint rules (R002-R005).

Each rule targets a bug class this codebase has actually hit or is
structurally exposed to:

* **R002** — randomness must flow through ``repro._util.rng_for`` and
  simulation code must never read wall-clock time: both break the
  bit-identical replay contract.
* **R003** — iterating a dict/set while accumulating numbers makes the
  result depend on hash/insertion order; float addition is not
  associative, so sums must run in a sorted, explicit order.
* **R004** — ``except Exception``/bare ``except`` that neither
  re-raises nor logs hides exactly the corruption the invariant
  checker exists to surface.
* **R005** — mutable default arguments alias state across calls, and
  ``==`` against float literals is a determinism trap across numpy
  versions; both are banned in simulation code.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Set, Tuple

from repro.analysis.linter import FileContext, Finding, Rule

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
_WALL_CLOCK_DATE_FUNCS = frozenset({"now", "utcnow", "today"})
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


def _attr_chain(node: ast.AST) -> Optional[str]:
    """Dotted-name string for ``a.b.c`` style expressions, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _iter_functions(
    tree: ast.AST,
) -> Iterator[Tuple[ast.AST, Tuple[str, ...]]]:
    """Yield every node with the stack of enclosing function names."""
    stack: List[str] = []

    def visit(node: ast.AST) -> Iterator[Tuple[ast.AST, Tuple[str, ...]]]:
        yield node, tuple(stack)
        is_func = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        if is_func:
            stack.append(node.name)
        for child in ast.iter_child_nodes(node):
            yield from visit(child)
        if is_func:
            stack.pop()

    yield from visit(tree)


#: Functions allowed to construct ``np.random`` machinery directly: the
#: deterministic derivation site (``rng_for``) and the state-replay
#: site the stream banks use to resume a captured generator
#: (``rng_from_state``).  Both live in ``repro._util``; R002 skips call
#: sites inside them and the deep analyzer's R104 shares this set, so
#: the two layers always agree on what "sanctioned" means.
SANCTIONED_RNG_FUNCS = frozenset({"rng_for", "rng_from_state"})


class UnseededRandomness(Rule):
    """R002: randomness outside sanctioned sites; wall-clock in sim code."""

    rule_id = "R002"
    title = "unseeded randomness / wall-clock time"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        has_random_import = any(
            isinstance(node, ast.Import)
            and any(alias.name == "random" for alias in node.names)
            for node in ast.walk(ctx.tree)
        )
        for node, func_stack in _iter_functions(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                yield ctx.finding(
                    self.rule_id,
                    node,
                    "import from the stdlib random module; derive generators "
                    "via repro._util.rng_for instead",
                )
                continue
            if not isinstance(node, ast.Call):
                continue
            chain = _attr_chain(node.func)
            if chain is None:
                continue
            if SANCTIONED_RNG_FUNCS.intersection(func_stack):
                continue  # inside a sanctioned construction site
            if chain.startswith(("np.random.", "numpy.random.")):
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"direct call to {chain}; all generators must come from "
                    "repro._util.rng_for so runs replay bit-identically",
                )
            elif has_random_import and chain.startswith("random."):
                yield ctx.finding(
                    self.rule_id,
                    node,
                    f"call to stdlib {chain}; use repro._util.rng_for",
                )
            elif ctx.is_sim_path:
                yield from self._check_wall_clock(ctx, node, chain)

    def _check_wall_clock(
        self, ctx: FileContext, node: ast.Call, chain: str
    ) -> Iterator[Finding]:
        parts = chain.split(".")
        if parts[0] == "time" and parts[-1] in _WALL_CLOCK_TIME_FUNCS:
            yield ctx.finding(
                self.rule_id,
                node,
                f"wall-clock read {chain} in simulation code; simulated "
                "time must come from the engine",
            )
        elif parts[-1] in _WALL_CLOCK_DATE_FUNCS and any(
            p in {"datetime", "date", "Date"} for p in parts[:-1]
        ):
            yield ctx.finding(
                self.rule_id,
                node,
                f"wall-clock read {chain} in simulation code; simulated "
                "time must come from the engine",
            )


def _is_unordered_iterable(
    node: ast.AST, set_bound_names: Set[str]
) -> bool:
    """Whether an iterable expression has hash/insertion-dependent order."""
    if isinstance(node, (ast.Set, ast.SetComp, ast.DictComp)):
        return True
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Name) and node.func.id in {
            "set",
            "frozenset",
            "dict",
        }:
            return True
        if isinstance(node.func, ast.Attribute) and node.func.attr in {
            "values",
            "items",
            "keys",
        }:
            return True
    if isinstance(node, ast.Name) and node.id in set_bound_names:
        return True
    return False


class OrderDependentAccumulation(Rule):
    """R003: dict/set iteration feeding numeric accumulation in sim code."""

    rule_id = "R003"
    title = "order-dependent accumulation"
    sim_paths_only = True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        set_names = self._set_bound_names(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and _is_unordered_iterable(
                node.iter, set_names
            ):
                if any(
                    isinstance(sub, ast.AugAssign)
                    for stmt in node.body
                    for sub in ast.walk(stmt)
                ):
                    yield ctx.finding(
                        self.rule_id,
                        node,
                        "accumulation over dict/set iteration depends on "
                        "hash/insertion order; iterate sorted(...) instead",
                    )
            elif isinstance(node, ast.Call):
                yield from self._check_sum(ctx, node, set_names)

    def _check_sum(
        self, ctx: FileContext, node: ast.Call, set_names: Set[str]
    ) -> Iterator[Finding]:
        chain = _attr_chain(node.func)
        is_sum = isinstance(node.func, ast.Name) and node.func.id == "sum"
        is_fsum = chain is not None and chain.split(".")[-1] == "fsum"
        if not (is_sum or is_fsum) or not node.args:
            return
        arg = node.args[0]
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            if arg.generators and _is_unordered_iterable(
                arg.generators[0].iter, set_names
            ):
                yield ctx.finding(
                    self.rule_id,
                    node,
                    "sum over dict/set iteration depends on hash/insertion "
                    "order; iterate sorted(...) instead",
                )

    @staticmethod
    def _set_bound_names(tree: ast.AST) -> Set[str]:
        """Names assigned from set constructors/literals anywhere in file."""
        names: Set[str] = set()
        for node in ast.walk(tree):
            value = None
            target = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            if (
                target is not None
                and isinstance(target, ast.Name)
                and _is_unordered_iterable(value, set())
            ):
                names.add(target.id)
        return names


class SwallowedException(Rule):
    """R004: broad excepts must re-raise or log what they caught."""

    rule_id = "R004"
    title = "swallowed broad exception"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not self._is_broad(node.type):
                continue
            if self._handles(node):
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
        chain = _attr_chain(type_node)
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


class SimHygiene(Rule):
    """R005: mutable defaults and float ``==`` in simulation code."""

    rule_id = "R005"
    title = "mutable default / float equality"
    sim_paths_only = True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_defaults(ctx, node)
            elif isinstance(node, ast.Compare):
                yield from self._check_float_eq(ctx, node)

    def _check_defaults(self, ctx: FileContext, func) -> Iterator[Finding]:
        defaults = list(func.args.defaults) + [
            d for d in func.args.kw_defaults if d is not None
        ]
        for default in defaults:
            mutable = isinstance(default, (ast.List, ast.Dict, ast.Set))
            if isinstance(default, ast.Call) and isinstance(
                default.func, ast.Name
            ):
                mutable = mutable or default.func.id in {"list", "dict", "set"}
            if mutable:
                yield ctx.finding(
                    self.rule_id,
                    default,
                    f"mutable default argument in {func.name}(); the object "
                    "is shared across calls — default to None or use a "
                    "dataclass field factory",
                )

    def _check_float_eq(
        self, ctx: FileContext, node: ast.Compare
    ) -> Iterator[Finding]:
        if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            return
        operands = [node.left] + list(node.comparators)
        if any(
            isinstance(o, ast.Constant) and isinstance(o.value, float)
            for o in operands
        ):
            yield ctx.finding(
                self.rule_id,
                node,
                "exact equality against a float literal; use an ordered "
                "comparison or math.isclose/np.isclose",
            )


#: Every shipped rule, in id order.
ALL_RULES: Tuple[type, ...] = (
    UnseededRandomness,
    OrderDependentAccumulation,
    SwallowedException,
    SimHygiene,
)


def default_rules() -> List[Rule]:
    """Fresh instances of every rule (rules are stateless but cheap)."""
    return [rule() for rule in ALL_RULES]
