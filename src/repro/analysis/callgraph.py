"""Project-wide symbol table, call graph and write-effect inference.

This module is the whole-program half of the static analyzer: it parses
every file of a project once, builds a qualified-name symbol table of
functions and classes, derives a call graph, and infers — per function
— the set of *write effects*: which objects reachable from the
function's parameters (or from module-level state) the function may
mutate, propagated transitively through the call graph to a fixpoint.

The effect model is deliberately small and biased toward the questions
rules R101/R104 ask:

* An :class:`Effect` is ``(root, path)`` where ``root`` names a
  parameter of the function (``self`` included) or the pseudo-root
  ``<global>``, and ``path`` is the chain of attribute names walked to
  reach the mutated object (subscripts collapse onto their container,
  so ``self.a[i] = x`` is a write to ``self.a``).
* Direct effects come from assignment/``del`` targets, augmented
  assignments, calls to known in-place mutator methods (``append``,
  ``update``, ``fill``, ...), ``np.copyto`` and ``setattr``.
* Call edges map callee effects into the caller's frame through the
  argument bindings; a simple intra-function alias pass resolves
  ``sim = self.sim``-style locals.  Effects on freshly constructed
  objects stay local and are dropped.

Known limits (documented in the README): dynamic dispatch is resolved
*by method name* across every class in the project (class-hierarchy
analysis degenerate), except for method names shadowed by builtin
container types (``get``, ``add``, ``items``, ...), which never resolve
to project methods; numpy in-place ufuncs (``np.add.at``) and writes
through containers of objects are only seen when spelled as attribute
or subscript writes.
"""

from __future__ import annotations

import ast
import pathlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.linter import FileContext

#: Pseudo-root for writes to module-level state.
GLOBAL_ROOT = "<global>"

#: Effect paths are capped at this many components; longer chains are
#: truncated with ``...`` so fixpoint iteration terminates even for
#: recursive attribute walks.
MAX_PATH = 6

#: Method names on builtin containers that mutate their receiver.
BUILTIN_MUTATORS = frozenset(
    {
        "append",
        "appendleft",
        "extend",
        "extendleft",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "discard",
        "clear",
        "sort",
        "reverse",
        "fill",
        "sort_values",
        "resize",
        "put",
    }
)

#: Method names shadowed by builtin container/ndarray types.  Calls to
#: these never resolve to *project* methods by name (a ``.get(...)`` on
#: a dict must not inherit the effects of some unrelated class's
#: ``get``); mutators among them still count as writes to the receiver.
BUILTIN_SHADOWED = BUILTIN_MUTATORS | frozenset(
    {
        "get",
        "keys",
        "values",
        "items",
        "copy",
        "count",
        "index",
        "join",
        "split",
        "strip",
        "startswith",
        "endswith",
        "format",
        "astype",
        "reshape",
        "sum",
        "mean",
        "min",
        "max",
        "tolist",
        "item",
        "any",
        "all",
        "nonzero",
    }
)


@dataclass(frozen=True)
class Effect:
    """One potential mutation: ``root`` + attribute ``path`` to the target."""

    root: str
    path: Tuple[str, ...]

    def describe(self) -> str:
        """Human-readable ``root.a.b`` form."""
        return ".".join((self.root,) + self.path)


@dataclass
class FunctionInfo:
    """One function or method, with its AST and analysis artifacts."""

    qualname: str  # e.g. "repro.vm.address_space.AddressSpace.split_chunk"
    module: str
    class_name: Optional[str]
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef
    path: str
    params: Tuple[str, ...] = ()
    direct_effects: Set[Effect] = field(default_factory=set)
    effects: Set[Effect] = field(default_factory=set)
    #: Call sites: (call node, candidate callee qualnames).
    calls: List[Tuple[ast.Call, Tuple[str, ...]]] = field(default_factory=list)
    aliases: Dict[str, Optional[Tuple[str, Tuple[str, ...]]]] = field(
        default_factory=dict
    )
    global_names: Set[str] = field(default_factory=set)
    #: Cached flat body traversal (``walk_body``) — several analysis
    #: passes iterate every body node; walking the AST once and sharing
    #: the list keeps whole-program lint inside its time budget.
    _body_nodes: Optional[List[ast.AST]] = field(
        default=None, repr=False, compare=False
    )

    def walk_body(self) -> List[ast.AST]:
        """Every node in the function body, in ``ast.walk`` order.

        Equivalent to ``ast.walk`` over each body statement (nested
        definitions included, the header/decorators excluded), computed
        once per function and reused across analysis passes.
        """
        if self._body_nodes is None:
            self._body_nodes = [
                node
                for stmt in getattr(self.node, "body", [])
                for node in ast.walk(stmt)
            ]
        return self._body_nodes


def _attr_chain(node: ast.AST) -> Optional[str]:
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def module_name_for(path: str, roots: Sequence[str] = ("src",)) -> str:
    """Dotted module name for a file path.

    Components up to and including a ``src`` (or other listed root)
    component are stripped, so ``src/repro/vm/layout.py`` maps to
    ``repro.vm.layout`` regardless of where the checkout lives.
    """
    parts = list(pathlib.PurePosixPath(str(path).replace("\\", "/")).parts)
    for root in roots:
        if root in parts:
            parts = parts[len(parts) - parts[::-1].index(root):]
            break
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(p for p in parts if p and p != "/")


class Project:
    """Parsed project: every file, symbol table and call graph."""

    def __init__(self) -> None:
        self.contexts: Dict[str, FileContext] = {}  # module -> FileContext
        self.functions: Dict[str, FunctionInfo] = {}  # qualname -> info
        self.classes: Dict[str, ast.ClassDef] = {}  # qualified class name
        #: method name -> qualnames of every project method with that name
        self.methods_by_name: Dict[str, List[str]] = {}
        #: module -> {local name -> imported qualified name}
        self.imports: Dict[str, Dict[str, str]] = {}
        #: module -> {module-level function/class name -> qualname}
        self.module_symbols: Dict[str, Dict[str, str]] = {}
        #: Registry declarations found in the tree (module-level
        #: ``_RESULT_NEUTRAL`` / ``_SIM_ENTRY_POINTS`` tuples).
        self.result_neutral: Set[str] = set()
        self.entry_points: Set[str] = set()
        self._qual_cache: Dict[str, str] = {}
        self._external_cache: Dict[str, bool] = {}
        self._analyzed = False

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_paths(cls, paths: Sequence[pathlib.Path]) -> "Project":
        """Parse every Python file below the given paths.

        Module names are derived *relative to the directory passed in*
        (with a ``src`` component additionally stripped), so a fixture
        tree rooted anywhere gets the short module names its own
        registry declarations use.
        """
        project = cls()
        for root in paths:
            root = pathlib.Path(root)
            if root.is_dir():
                files = sorted(
                    p
                    for p in root.rglob("*.py")
                    if "__pycache__" not in p.parts
                )
                for file_path in files:
                    rel = file_path.relative_to(root)
                    project._add_file(file_path, module_name_for(str(rel)))
            elif root.suffix == ".py":
                project._add_file(root, module_name_for(root.name))
        return project

    def _add_file(self, file_path: pathlib.Path, module: str) -> None:
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            return
        self.add_source(source, str(file_path), module=module)

    @classmethod
    def from_sources(cls, sources: Dict[str, str]) -> "Project":
        """Build from an in-memory {path: source} mapping (tests)."""
        project = cls()
        for path, source in sorted(sources.items()):
            project.add_source(source, path)
        return project

    def add_source(
        self, source: str, path: str, module: Optional[str] = None
    ) -> None:
        """Parse and index one file (syntax errors are skipped)."""
        try:
            ctx = FileContext(source, path)
        except SyntaxError:
            return
        if module is None:
            module = module_name_for(path)
        self.contexts[module] = ctx
        self._index_module(module, ctx)
        self._analyzed = False

    def _index_module(self, module: str, ctx: FileContext) -> None:
        imports: Dict[str, str] = {}
        symbols: Dict[str, str] = {}
        self.imports[module] = imports
        self.module_symbols[module] = symbols
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    local = alias.asname or alias.name
                    imports[local] = f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    imports[local] = alias.name
        for stmt in ctx.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{module}.{stmt.name}"
                symbols[stmt.name] = qual
                self._add_function(qual, module, None, stmt, ctx.path)
            elif isinstance(stmt, ast.ClassDef):
                qual_cls = f"{module}.{stmt.name}"
                symbols[stmt.name] = qual_cls
                self.classes[qual_cls] = stmt
                for sub in stmt.body:
                    if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qual = f"{qual_cls}.{sub.name}"
                        self._add_function(qual, module, stmt.name, sub, ctx.path)
            elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
                target = stmt.targets[0]
                if isinstance(target, ast.Name):
                    self._maybe_registry(module, target.id, stmt.value)
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                if isinstance(stmt.target, ast.Name):
                    self._maybe_registry(module, stmt.target.id, stmt.value)

    _REGISTRIES = {
        "_RESULT_NEUTRAL": "result_neutral",
        "_SIM_ENTRY_POINTS": "entry_points",
    }

    def _maybe_registry(self, module: str, name: str, value: ast.AST) -> None:
        attr = self._REGISTRIES.get(name)
        if attr is None:
            return
        items: Set[str] = set()
        if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            items = {
                elt.value
                for elt in value.elts
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            }
        getattr(self, attr).update(items)

    def _add_function(
        self,
        qualname: str,
        module: str,
        class_name: Optional[str],
        node: ast.AST,
        path: str,
    ) -> None:
        args = node.args
        params = tuple(
            a.arg
            for a in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            )
        )
        info = FunctionInfo(
            qualname=qualname,
            module=module,
            class_name=class_name,
            name=node.name,
            node=node,
            path=path,
            params=params,
        )
        self.functions[qualname] = info
        if class_name is not None:
            self.methods_by_name.setdefault(node.name, []).append(qualname)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def analyze(self) -> None:
        """Collect direct effects and call edges, then run the fixpoint."""
        if self._analyzed:
            return
        for info in self.functions.values():
            _FunctionScanner(self, info).scan()
        self._propagate()
        self._analyzed = True

    def _propagate(self) -> None:
        """Transitive effect propagation to a fixpoint."""
        for info in self.functions.values():
            info.effects = set(info.direct_effects)
        changed = True
        while changed:
            changed = False
            for info in self.functions.values():
                for call, candidates in info.calls:
                    for callee_name in candidates:
                        callee = self.functions.get(callee_name)
                        if callee is None:
                            continue
                        mapped = self._map_effects(info, call, callee)
                        if not mapped <= info.effects:
                            info.effects |= mapped
                            changed = True

    def _map_effects(
        self, caller: FunctionInfo, call: ast.Call, callee: FunctionInfo
    ) -> Set[Effect]:
        """Translate a callee's effects into the caller's frame."""
        out: Set[Effect] = set()
        bindings = self._bind_arguments(call, callee)
        for effect in callee.effects:
            if effect.root == GLOBAL_ROOT:
                out.add(effect)
                continue
            arg = bindings.get(effect.root)
            if arg is None:
                continue
            resolved = resolve_expr(caller, arg)
            if resolved is None:
                continue  # local / fresh object: mutation is not visible
            root, path = resolved
            out.add(_make_effect(root, path + effect.path))
        return out

    def _bind_arguments(
        self, call: ast.Call, callee: FunctionInfo
    ) -> Dict[str, ast.AST]:
        """Map callee parameter names to caller argument expressions."""
        params = list(callee.params)
        bindings: Dict[str, ast.AST] = {}
        positional = list(call.args)
        is_method = callee.class_name is not None
        is_constructor = callee.name == "__init__"
        if is_method and not is_constructor and isinstance(call.func, ast.Attribute):
            # recv.m(...): bind the receiver to the first parameter.
            if params:
                bindings[params[0]] = call.func.value
                params = params[1:]
        elif is_method and params:
            # Constructor (fresh receiver) or unbound reference: the
            # receiver is not an expression in the caller's frame.
            params = params[1:]
        for param, arg in zip(params, positional):
            bindings[param] = arg
        for keyword in call.keywords:
            if keyword.arg is not None:
                bindings[keyword.arg] = keyword.value
        return bindings

    # ------------------------------------------------------------------
    # Call resolution
    # ------------------------------------------------------------------
    def resolve_call(
        self, info: FunctionInfo, call: ast.Call
    ) -> Tuple[str, ...]:
        """Candidate callee qualnames for a call site (possibly empty)."""
        func = call.func
        if isinstance(func, ast.Name):
            return self._resolve_name(info.module, func.id)
        if isinstance(func, ast.Attribute):
            # self.m(...) within a class: prefer the class's own method.
            if (
                isinstance(func.value, ast.Name)
                and info.params
                and func.value.id == info.params[0]
                and info.class_name is not None
            ):
                own = f"{info.module}.{info.class_name}.{func.attr}"
                if own in self.functions:
                    return (own,)
            # module.func(...) via an import of the module.
            chain = _attr_chain(func)
            if chain is not None:
                head, _, rest = chain.partition(".")
                imported = self.imports.get(info.module, {}).get(head)
                if imported is not None and rest:
                    qual = self._lookup(f"{imported}.{rest}")
                    if qual is not None:
                        if qual in self.functions:
                            return (qual,)
                        resolved = self._resolve_class_call(qual)
                        if resolved:
                            return resolved
                    # A call through an *external* module alias
                    # (``np.load``, ``json.dump``) never dispatches to
                    # project methods by name.
                    if self._is_external(imported):
                        return ()
            # recv.m(...): name-based resolution across all classes,
            # except names shadowed by builtin containers.
            if func.attr in BUILTIN_SHADOWED:
                return ()
            return tuple(self.methods_by_name.get(func.attr, ()))
        return ()

    def _resolve_name(self, module: str, name: str) -> Tuple[str, ...]:
        local = self.module_symbols.get(module, {}).get(name)
        if local is None:
            local = self.imports.get(module, {}).get(name)
        if local is None:
            return ()
        local = self._lookup(local) or local
        if local in self.functions:
            return (local,)
        return self._resolve_class_call(local)

    def _lookup(self, qual: str) -> Optional[str]:
        """Map an imported qualified name onto an indexed one.

        Handles the package-prefix mismatch between import statements
        (``repro.vm.layout.X``) and module names derived relative to a
        lint root below the package (``vm.layout.X``): an exact match
        wins, otherwise a unique known name related by a dotted suffix.
        """
        if qual in self.functions or qual in self.classes:
            return qual
        cached = self._qual_cache.get(qual)
        if cached is not None:
            return cached or None
        matches = [
            known
            for known in list(self.functions) + list(self.classes)
            if qual.endswith("." + known) or known.endswith("." + qual)
        ]
        result = matches[0] if len(matches) == 1 else ""
        self._qual_cache[qual] = result
        return result or None

    def _is_external(self, dotted: str) -> bool:
        """Whether an imported dotted name points outside the project."""
        cached = self._external_cache.get(dotted)
        if cached is not None:
            return cached
        external = self._lookup(dotted) is None and not any(
            dotted == known
            or dotted.endswith("." + known)
            or known.endswith("." + dotted)
            or dotted.startswith(known + ".")
            or known.startswith(dotted + ".")
            for known in self.contexts
        )
        self._external_cache[dotted] = external
        return external

    def _resolve_class_call(self, qual_cls: str) -> Tuple[str, ...]:
        """A class-name call resolves to its ``__init__`` if present."""
        if qual_cls in self.classes:
            init = f"{qual_cls}.__init__"
            if init in self.functions:
                return (init,)
        return ()

    # ------------------------------------------------------------------
    # Reachability (R104)
    # ------------------------------------------------------------------
    def reachable_from(self, entries: Iterable[str]) -> Dict[str, Tuple[str, ...]]:
        """Functions reachable from the entries, with one shortest call
        chain (as a tuple of qualnames, entry first) per function."""
        self.analyze()
        chains: Dict[str, Tuple[str, ...]] = {}
        queue: List[str] = []
        for entry in entries:
            if entry in self.functions and entry not in chains:
                chains[entry] = (entry,)
                queue.append(entry)
        while queue:
            current = queue.pop(0)
            info = self.functions[current]
            for _, candidates in info.calls:
                for callee in candidates:
                    if callee in self.functions and callee not in chains:
                        chains[callee] = chains[current] + (callee,)
                        queue.append(callee)
        return chains


def _make_effect(root: str, path: Tuple[str, ...]) -> Effect:
    if len(path) > MAX_PATH:
        path = path[:MAX_PATH] + ("...",)
    return Effect(root, path)


def resolve_expr(
    info: FunctionInfo, node: ast.AST
) -> Optional[Tuple[str, Tuple[str, ...]]]:
    """Resolve an expression to ``(root, attr path)`` in a function frame.

    Roots are parameter names or :data:`GLOBAL_ROOT`; ``None`` means the
    expression denotes a local or freshly created object whose mutation
    is invisible to callers.  Subscripts collapse onto their container.
    """
    path: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            path.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Call):
            return None  # fresh object
        elif isinstance(node, ast.Name):
            name = node.id
            if name in info.params:
                return name, tuple(reversed(path))
            if name in info.global_names:
                return GLOBAL_ROOT, (name,) + tuple(reversed(path))
            if name in info.aliases:
                base = info.aliases[name]
                if base is None:
                    return None
                root, base_path = base
                return root, base_path + tuple(reversed(path))
            return None  # plain local
        else:
            return None


class _FunctionScanner:
    """Single pass over one function: aliases, direct effects, calls."""

    def __init__(self, project: Project, info: FunctionInfo) -> None:
        self.project = project
        self.info = info

    def scan(self) -> None:
        nodes = self.info.walk_body()
        self._collect_globals(nodes)
        self._collect_aliases(nodes)
        for node in nodes:
            self._visit(node)

    def _collect_globals(self, nodes) -> None:
        for node in nodes:
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                self.info.global_names |= set(node.names)

    def _collect_aliases(self, nodes) -> None:
        """Flow-insensitive ``name = <path expr>`` alias map.

        A name assigned more than once, or assigned a non-path value,
        resolves to nothing (conservative for effect *attribution*: a
        rebound local never re-acquires parameter effects).
        """
        info = self.info
        for node in nodes:
            if not isinstance(node, ast.Assign) or len(node.targets) != 1:
                continue
            target = node.targets[0]
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            if name in info.params:
                continue  # reassigned params keep param attribution
            resolved = resolve_expr(info, node.value)
            if name in info.aliases or resolved is None:
                info.aliases[name] = None
            else:
                info.aliases[name] = resolved

    # ------------------------------------------------------------------
    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._effect_for_target(target)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            self._effect_for_target(node.target)
        elif isinstance(node, ast.AugAssign):
            self._effect_for_target(node.target)
        elif isinstance(node, ast.Delete):
            for target in node.targets:
                self._effect_for_target(target)
        elif isinstance(node, ast.Call):
            self._visit_call(node)

    def _effect_for_target(self, target: ast.AST) -> None:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._effect_for_target(elt)
            return
        if isinstance(target, ast.Name):
            if target.id in self.info.global_names:
                self._add(GLOBAL_ROOT, (target.id,))
            return
        if isinstance(target, ast.Starred):
            self._effect_for_target(target.value)
            return
        if not isinstance(target, (ast.Attribute, ast.Subscript)):
            return
        # For attribute targets the written object is the attribute
        # itself; for subscript targets it is the container.
        if isinstance(target, ast.Attribute):
            base = resolve_expr(self.info, target.value)
            if base is not None:
                root, path = base
                self._add(root, path + (target.attr,))
        else:
            base = resolve_expr(self.info, target.value)
            if base is not None:
                self._add(*base)

    def _visit_call(self, call: ast.Call) -> None:
        info = self.info
        func = call.func
        # Builtin in-place mutators write their receiver.
        if isinstance(func, ast.Attribute) and func.attr in BUILTIN_MUTATORS:
            base = resolve_expr(info, func.value)
            if base is not None:
                self._add(*base)
        # np.copyto(dst, ...) writes its first argument.
        chain = _attr_chain(func)
        if chain is not None and chain.split(".")[-1] == "copyto" and call.args:
            base = resolve_expr(info, call.args[0])
            if base is not None:
                self._add(*base)
        # setattr(obj, name, value) writes obj.
        if isinstance(func, ast.Name) and func.id == "setattr" and call.args:
            base = resolve_expr(info, call.args[0])
            if base is not None:
                root, path = base
                self._add(root, path + ("?",))
        candidates = self.project.resolve_call(info, call)
        if candidates:
            info.calls.append((call, candidates))

    def _add(self, root: str, path: Tuple[str, ...]) -> None:
        self.info.direct_effects.add(_make_effect(root, path))
