"""Findings, parsed files and their output for ``repro lint``.

``repro lint`` parses each file once into a
:class:`repro.analysis.callgraph.Project`, which keeps one
:class:`FileContext` per file, and runs the rules of
:mod:`repro.analysis.rules` over it.  This module owns what every rule
shares: the :class:`Finding` record, suppression comments, and output
formatting.

Suppression: a line ending in ``# lint: ignore`` silences every rule on
that line; ``# lint: ignore[R104]`` (comma-separated ids allowed)
silences only the named rules.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Set, Tuple

_IGNORE_RE = re.compile(r"#\s*lint:\s*ignore(?:\[([A-Za-z0-9_,\s]+)\])?")


@dataclass(frozen=True)
class Finding:
    """One linter hit: a rule violation at a source location.

    A rule may also carry the inferred call ``chain`` that reaches the
    site (R110 does); it stays empty for every other rule and is only
    serialised when present, so the JSON schema is unchanged for the
    rules without one.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    chain: Tuple[str, ...] = ()

    def sort_key(self) -> Tuple[str, int, str, int, str]:
        """Canonical output order: path, line, rule id, col, message.

        The lint pass sorts with this one key, so text and JSON output
        and CI logs are stable whatever order the rules run in.
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
    """One parsed source file and its suppression comments."""

    def __init__(self, source: str, path: str) -> None:
        self.path = path
        self.tree = ast.parse(source, filename=path)
        self._suppressed: Dict[int, Optional[Set[str]]] = {}
        for lineno, line in enumerate(source.splitlines(), start=1):
            match = _IGNORE_RE.search(line)
            if not match:
                continue
            if match.group(1) is None:
                self._suppressed[lineno] = None  # every rule
            else:
                ids = {part.strip() for part in match.group(1).split(",")}
                self._suppressed[lineno] = {i for i in ids if i}

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


def format_findings(findings: Sequence[Finding], fmt: str = "text") -> str:
    """Render findings as ``text`` or ``json``.

    The ``json`` payload shape is a stable contract (CI and editor
    integrations parse it).
    """
    if fmt == "json":
        payload = {
            "findings": [f.to_dict() for f in findings],
            "count": len(findings),
        }
        return json.dumps(payload, indent=2)
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f.format_text() for f in findings]
    if findings:
        lines.append(f"{len(findings)} finding(s)")
    return "\n".join(lines)
