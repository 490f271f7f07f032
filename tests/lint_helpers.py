"""Lint entry points for tests.

``repro lint`` builds a :class:`~repro.analysis.callgraph.Project` from
paths and runs :func:`repro.analysis.rules.lint_project` over it; tests
build the project from paths or from an in-memory ``{path: source}``
tree.
"""

from __future__ import annotations

import pathlib
from typing import Dict, List, Optional, Sequence

from repro.analysis.callgraph import Project
from repro.analysis.linter import Finding
from repro.analysis.rules import Rule, lint_project


def project_from_sources(sources: Dict[str, str]) -> Project:
    """A project built from an in-memory ``{path: source}`` tree."""
    project = Project()
    for path, source in sorted(sources.items()):
        project.add_source(source, path)
    return project


def lint_tree(
    paths: Sequence[pathlib.Path],
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Build a project from paths and run the rules over it."""
    return lint_project(Project.from_paths(paths), rules)


def lint_sources(
    sources: Dict[str, str],
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint an in-memory ``{path: source}`` tree."""
    return lint_project(project_from_sources(sources), rules)
