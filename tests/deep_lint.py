"""Deep-lint entry points for tests.

``repro lint --deep`` builds a :class:`~repro.analysis.callgraph.Project`
from paths and runs :func:`repro.analysis.deep.deep_lint_project` over
it; tests build the project from paths or from an in-memory
``{path: source}`` tree.
"""

from __future__ import annotations

import pathlib
from typing import Dict, List, Optional, Sequence

from repro.analysis.callgraph import Project
from repro.analysis.deep import DeepRule, deep_lint_project
from repro.analysis.linter import Finding


def project_from_sources(sources: Dict[str, str]) -> Project:
    """A project built from an in-memory ``{path: source}`` tree."""
    project = Project()
    for path, source in sorted(sources.items()):
        project.add_source(source, path)
    return project


def deep_lint_paths(
    paths: Sequence[pathlib.Path],
    rules: Optional[Sequence[DeepRule]] = None,
) -> List[Finding]:
    """Build a project from paths and run the deep rules over it."""
    return deep_lint_project(Project.from_paths(paths), rules)


def deep_lint_sources(
    sources: Dict[str, str],
    rules: Optional[Sequence[DeepRule]] = None,
) -> List[Finding]:
    """Deep-lint an in-memory ``{path: source}`` tree."""
    return deep_lint_project(project_from_sources(sources), rules)
