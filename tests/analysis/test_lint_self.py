"""The shipped tree must satisfy its own linter, and the CLI must
report that with exit code 0 (non-zero when findings exist)."""

from __future__ import annotations

import json
import pathlib

import repro
from repro.cli import main

PACKAGE = pathlib.Path(repro.__file__).parent
FIXTURES = pathlib.Path(__file__).parent / "fixtures"
BROKEN = FIXTURES / "decisionflow_broken"


def test_cli_lint_exits_zero_on_clean_tree(capsys):
    assert main(["lint", str(PACKAGE), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"findings": [], "count": 0}


def test_cli_lint_default_target_is_the_package(capsys):
    assert main(["lint"]) == 0
    assert "no findings" in capsys.readouterr().out


def test_cli_lint_exits_nonzero_on_findings(capsys):
    """One pass over the broken fixture names every rule."""
    assert main(["lint", str(BROKEN)]) == 1
    out = capsys.readouterr().out
    assert "finding(s)" in out
    for rule in ("R004", "R101", "R104", "R110", "R112", "R113"):
        assert f" {rule} " in out


def test_cli_lint_json_findings_shape(capsys):
    assert main(["lint", str(FIXTURES / "r004_bad.py"), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == len(payload["findings"]) == 2
    assert {f["rule"] for f in payload["findings"]} == {"R004"}
    assert set(payload["findings"][0]) == {
        "rule",
        "path",
        "line",
        "col",
        "message",
    }
