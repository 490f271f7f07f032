"""Fixture tests for the per-file rule R004.

``r004_bad.py`` must trip R004 (and only it) once per swallowing
handler, and ``r004_clean.py`` — narrow, logging and re-raising
handlers — must lint clean under every rule.  R004 runs over each file
of the one parsed project, beside the whole-program rules.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis.rules import ALL_RULES
from tests.lint_helpers import lint_sources, lint_tree

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

SWALLOW_SRC = (
    "def close(resource):\n"
    "    try:\n"
    "        resource.close()\n"
    "    except Exception:  # lint: ignore[R004]\n"
    "        pass\n"
)


@pytest.mark.parametrize("name,rule_id", [("r004_bad.py", "R004")])
def test_bad_fixture_trips_exactly_its_rule(name, rule_id):
    findings = lint_tree([FIXTURES / name])
    assert findings, f"{name} produced no findings"
    assert {f.rule for f in findings} == {rule_id}


@pytest.mark.parametrize("name", ["r004_clean.py"])
def test_clean_fixture_has_no_findings(name):
    assert lint_tree([FIXTURES / name]) == []


def test_bad_fixture_counts():
    """Every swallowing handler is reported separately: ``except
    Exception`` at line 8, a bare ``except`` at line 15."""
    findings = lint_tree([FIXTURES / "r004_bad.py"])
    assert [(f.line, f.message.split(" neither")[0]) for f in findings] == [
        (8, "except Exception"),
        (15, "bare except"),
    ]


def test_suppression_comment_silences_named_rule():
    assert lint_sources({"src/x.py": SWALLOW_SRC}) == []
    # The suppression is per-rule: a different id does not silence it.
    unsuppressed = SWALLOW_SRC.replace("[R004]", "[R101]")
    assert [f.rule for f in lint_sources({"src/x.py": unsuppressed})] == [
        "R004"
    ]


def test_blanket_suppression_comment():
    source = SWALLOW_SRC.replace("# lint: ignore[R004]", "# lint: ignore")
    assert lint_sources({"src/x.py": source}) == []


def test_files_with_one_module_name_are_each_linted(tmp_path):
    """``a/x.py`` and ``b/x.py`` share a module name in the call graph,
    but the one pass still lints both files."""
    for part, source in (("a", SWALLOW_SRC), ("b", "y = 1\n")):
        (tmp_path / part).mkdir()
        (tmp_path / part / "x.py").write_text(
            source.replace("  # lint: ignore[R004]", "")
        )
    paths = [tmp_path / "a" / "x.py", tmp_path / "b" / "x.py"]
    findings = lint_tree(paths)
    assert [(f.rule, f.path) for f in findings] == [("R004", str(paths[0]))]


def test_rule_subset_selection():
    """Running only R101 ignores defects R004 would flag."""
    (r101,) = [rule() for rule in ALL_RULES if rule.rule_id == "R101"]
    assert lint_tree([FIXTURES / "r004_bad.py"], rules=[r101]) == []


def test_syntax_error_reported_not_raised(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    findings = lint_tree([broken])
    assert [(f.rule, f.line) for f in findings] == [("E001", 1)]


def test_finding_formats():
    findings = lint_tree([FIXTURES / "r004_bad.py"])
    text = findings[0].format_text()
    assert "R004" in text and text.count(":") >= 3
    payload = findings[0].to_dict()
    assert payload["rule"] == "R004" and payload["line"] > 0
