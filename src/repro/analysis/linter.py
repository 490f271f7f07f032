"""Rule engine for the repro determinism linter.

The linter is a thin harness over :mod:`ast`: each rule receives one
parsed file (a :class:`FileContext`) and yields :class:`Finding`
objects.  Rules live in :mod:`repro.analysis.rules`; this module owns
file discovery, suppression comments, and output formatting, and is
what both the ``repro lint`` CLI and the test suite drive.

Suppression: a line ending in ``# lint: ignore`` silences every rule on
that line; ``# lint: ignore[R003]`` (comma-separated ids allowed)
silences only the named rules.

Path scoping: some rules only make sense on simulation state and model
code.  A file is "sim-path" when a component *below the package or
fixture root* is one of :data:`SIM_PATH_PARTS` — which matches both the
real tree (``src/repro/sim/engine.py``) and test fixtures laid out the
same way, without being fooled by a checkout that happens to live under
a directory named ``core`` or ``sim`` (see :data:`SIM_PATH_ROOTS`).
"""

from __future__ import annotations

import ast
import json
import pathlib
import re
from dataclasses import dataclass
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

#: Path components marking deterministic-simulation code, where the
#: ordering/float rules (R003, R005) and wall-clock bans (R002) apply.
SIM_PATH_PARTS = frozenset({"sim", "core", "vm", "hardware", "workloads"})

#: Components that anchor sim-path matching: only components *after*
#: the last of these count.  ``repro`` is the package root, ``fixtures``
#: the test-fixture root.  Absolute paths containing neither are never
#: sim-path (they point outside any known tree); relative paths without
#: an anchor are matched whole, so ``lint_source(src, "sim/snippet.py")``
#: still lints as simulation code.
SIM_PATH_ROOTS = frozenset({"repro", "fixtures"})

_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore(?:\[([A-Za-z0-9_,\s]+)\])?")


@dataclass(frozen=True)
class Finding:
    """One linter hit: a rule violation at a source location.

    Whole-program rules may additionally carry the inferred call
    ``chain`` that reaches the site (R110 does); it stays empty for
    every other rule and is only serialised when present, so the
    original JSON schema is unchanged for the rules without one.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    chain: Tuple[str, ...] = ()

    def sort_key(self) -> Tuple[str, int, str, int, str]:
        """Canonical output order: path, line, rule id, col, message.

        Every façade (``lint_source``, ``lint_paths``, the deep pass and
        the CLI's merged output) sorts with this one key, so baselines
        and CI logs are stable across rule families and rule-execution
        order.
        """
        return (self.path, self.line, self.rule, self.col, self.message)

    def format_text(self) -> str:
        """``path:line:col: RULE message`` (editor-clickable)."""
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form for ``--format json`` and CI."""
        payload: Dict[str, object] = {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }
        if self.chain:
            payload["chain"] = list(self.chain)
        return payload


class FileContext:
    """One parsed source file plus the lookup helpers rules need."""

    def __init__(self, source: str, path: str) -> None:
        self.source = source
        self.path = path
        self.tree = ast.parse(source, filename=path)
        self.lines = source.splitlines()
        self._suppressed: Dict[int, Optional[Set[str]]] = {}
        for lineno, line in enumerate(self.lines, start=1):
            match = _IGNORE_RE.search(line)
            if not match:
                continue
            if match.group(1) is None:
                self._suppressed[lineno] = None  # every rule
            else:
                ids = {part.strip() for part in match.group(1).split(",")}
                self._suppressed[lineno] = {i for i in ids if i}

    @property
    def is_sim_path(self) -> bool:
        """Whether the file lives under a simulation-state directory.

        Matching is scoped to path components below the last
        :data:`SIM_PATH_ROOTS` anchor so a checkout under a directory
        named ``core`` or ``sim`` does not mark every file sim-path.
        """
        pure = pathlib.PurePosixPath(self.path.replace("\\", "/"))
        parts = pure.parts
        anchor = max(
            (i for i, part in enumerate(parts) if part in SIM_PATH_ROOTS),
            default=None,
        )
        if anchor is not None:
            parts = parts[anchor + 1:]
        elif pure.is_absolute():
            return False
        return any(part in SIM_PATH_PARTS for part in parts)

    def is_suppressed(self, lineno: int, rule_id: str) -> bool:
        """Whether a ``lint: ignore`` comment covers this line and rule."""
        if lineno not in self._suppressed:
            return False
        rules = self._suppressed[lineno]
        return rules is None or rule_id in rules

    def finding(
        self,
        rule_id: str,
        node: ast.AST,
        message: str,
        chain: Tuple[str, ...] = (),
    ) -> Finding:
        """Build a :class:`Finding` anchored at an AST node."""
        return Finding(
            rule=rule_id,
            path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            chain=chain,
        )


class Rule:
    """Base class for linter rules.

    Subclasses set :attr:`rule_id`/:attr:`title`, optionally restrict
    themselves to sim paths via :attr:`sim_paths_only`, and implement
    :meth:`check`.
    """

    rule_id: str = ""
    title: str = ""
    sim_paths_only: bool = False

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether the rule should run on this file at all."""
        return ctx.is_sim_path if self.sim_paths_only else True

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one file."""
        raise NotImplementedError

    def run(self, ctx: FileContext) -> Iterator[Finding]:
        """Apply the rule, honouring scoping and suppression comments."""
        if not self.applies_to(ctx):
            return
        for finding in self.check(ctx):
            if not ctx.is_suppressed(finding.line, finding.rule):
                yield finding


def iter_python_files(paths: Iterable[pathlib.Path]) -> Iterator[pathlib.Path]:
    """Expand files/directories into the ``.py`` files beneath them."""
    for path in paths:
        path = pathlib.Path(path)
        if path.is_dir():
            yield from sorted(
                p
                for p in path.rglob("*.py")
                if "__pycache__" not in p.parts
            )
        elif path.suffix == ".py":
            yield path


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint one source string (the unit the fixture tests drive).

    ``path`` participates in rule scoping: pass e.g. ``sim/snippet.py``
    to lint a snippet as simulation code.
    """
    if rules is None:
        from repro.analysis.rules import default_rules

        rules = default_rules()
    ctx = FileContext(source, path)
    findings: List[Finding] = []
    for rule in rules:
        findings.extend(rule.run(ctx))
    findings.sort(key=Finding.sort_key)
    return findings


def lint_paths(
    paths: Sequence[pathlib.Path],
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint every Python file under the given paths."""
    findings: List[Finding] = []
    for file_path in iter_python_files(paths):
        try:
            source = file_path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            findings.append(
                Finding("E000", str(file_path), 0, 0, f"unreadable file: {exc}")
            )
            continue
        try:
            findings.extend(lint_source(source, str(file_path), rules))
        except SyntaxError as exc:
            findings.append(
                Finding(
                    "E001",
                    str(file_path),
                    exc.lineno or 0,
                    (exc.offset or 0),
                    f"syntax error: {exc.msg}",
                )
            )
    findings.sort(key=Finding.sort_key)
    return findings


def format_findings(findings: Sequence[Finding], fmt: str = "text") -> str:
    """Render findings as ``text``, ``json`` or ``sarif``.

    The ``json`` payload shape is a stable contract (CI and editor
    integrations parse it); ``sarif`` emits a SARIF 2.1.0 log for
    GitHub code scanning (:mod:`repro.analysis.sarif`).
    """
    if fmt == "json":
        payload = {
            "findings": [f.to_dict() for f in findings],
            "count": len(findings),
        }
        return json.dumps(payload, indent=2)
    if fmt == "sarif":
        from repro.analysis.sarif import format_sarif

        return format_sarif(findings)
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f.format_text() for f in findings]
    if findings:
        lines.append(f"{len(findings)} finding(s)")
    return "\n".join(lines)
