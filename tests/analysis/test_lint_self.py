"""The shipped tree must satisfy its own linter, and the CLI must
report that with exit code 0 (non-zero when findings exist)."""

from __future__ import annotations

import json
import pathlib

import repro
from repro.analysis.linter import format_findings, lint_paths
from repro.cli import main

PACKAGE = pathlib.Path(repro.__file__).parent
FIXTURES = pathlib.Path(__file__).parent / "fixtures"


def test_package_lints_clean():
    findings = lint_paths([PACKAGE])
    assert findings == [], format_findings(findings)


def test_cli_lint_exits_zero_on_clean_tree(capsys):
    assert main(["lint", str(PACKAGE), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"findings": [], "count": 0}


def test_cli_lint_default_target_is_the_package(capsys):
    assert main(["lint"]) == 0
    assert "no findings" in capsys.readouterr().out


def test_cli_lint_exits_nonzero_on_findings(capsys):
    assert main(["lint", str(FIXTURES)]) == 1
    out = capsys.readouterr().out
    assert "finding(s)" in out
    for rule in ("R002", "R003", "R004", "R005"):
        assert rule in out


def test_cli_lint_json_findings_shape(capsys):
    assert main(["lint", str(FIXTURES / "r004_bad.py"), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == len(payload["findings"]) > 0
    assert set(payload["findings"][0]) == {
        "rule",
        "path",
        "line",
        "col",
        "message",
    }
