"""The package starts no threads.

Every run is single-threaded and runs fan out over a process pool, so
nothing in ``src/repro`` needs a lock, and the lint rules have no
lockset analysis to do.  This test keeps that premise true: it parses
every module of the package and fails on an import of ``threading`` or
``_thread``, or on any reference to ``ThreadPoolExecutor``.
``ProcessPoolExecutor`` stays allowed.
"""

from __future__ import annotations

import ast
import pathlib
from typing import List

import pytest

import repro

PACKAGE = pathlib.Path(repro.__file__).parent

_THREAD_MODULES = ("threading", "_thread")


def thread_uses(source: str) -> List[str]:
    """``line: what`` for every thread import or thread-pool reference."""
    found = []
    for node in ast.walk(ast.parse(source)):
        modules, names = [], []
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        found += [
            f"{node.lineno}: import {module}"
            for module in modules
            if module.split(".")[0] in _THREAD_MODULES
        ]
        found += [
            f"{node.lineno}: {name}"
            for name in names
            if name == "ThreadPoolExecutor"
        ]
    return found


@pytest.mark.parametrize(
    "source",
    [
        "import threading\n",
        "import threading as t\n",
        "import _thread\n",
        "from threading import Lock\n",
        "from concurrent.futures import ThreadPoolExecutor\n",
        "import concurrent.futures\nconcurrent.futures.ThreadPoolExecutor(2)\n",
    ],
)
def test_detector_catches(source):
    assert thread_uses(source)


def test_detector_allows_process_pools_and_thread_ids():
    source = (
        "import concurrent.futures\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "concurrent.futures.ProcessPoolExecutor(2)\n"
        "samples._thread[0] = 1\n"
    )
    assert thread_uses(source) == []


def test_package_starts_no_threads():
    offenders = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        uses = thread_uses(path.read_text(encoding="utf-8"))
        if uses:
            offenders[str(path.relative_to(PACKAGE))] = uses
    assert offenders == {}
