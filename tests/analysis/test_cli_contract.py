"""CLI contract tests for ``repro lint``.

Pins the externally observable behaviour CI depends on: exit codes
(0 clean / 1 findings / 2 usage error), the ``--format json`` schema,
canonical finding order, one parse per file, suppression-comment
parsing edge cases, and the files the one parse cannot read or parse
(E000, E001).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from tests.lint_helpers import lint_sources

CLEAN_SRC = "def f(x):\n    return x + 1\n"

# R104: a wall-clock read reachable from the sim entry point.
CLOCK_SRC = (
    "import time\n\n\n"
    "class Simulation:\n"
    "    def run(self):\n"
    "        return time.time()\n"
)

# R101: registered measurement code that writes simulation state.
NEUTRAL_BAD_SRC = (
    "def observe(sim):\n"
    "    sim.epoch = 0\n\n\n"
    "_RESULT_NEUTRAL = (\"observe\",)\n"
)

# R004: a broad handler that swallows what it caught.
SWALLOW_SRC = (
    "def close(resource):\n"
    "    try:\n"
    "        resource.close()\n"
    "    except Exception:\n"
    "        pass\n"
)


@pytest.fixture
def sim_tree(tmp_path):
    """A throwaway tree laid out like the package."""
    root = tmp_path / "src" / "repro" / "sim"
    root.mkdir(parents=True)
    return root


# ----------------------------------------------------------------------
# Exit codes
# ----------------------------------------------------------------------
def test_exit_0_on_clean_tree(sim_tree, capsys):
    (sim_tree / "ok.py").write_text(CLEAN_SRC)
    assert main(["lint", str(sim_tree)]) == 0
    assert "no findings" in capsys.readouterr().out


@pytest.mark.parametrize(
    "source,rule",
    [(CLOCK_SRC, "R104"), (NEUTRAL_BAD_SRC, "R101")],
    ids=["R104", "R101"],
)
def test_exit_1_on_findings(sim_tree, capsys, source, rule):
    (sim_tree / "bad.py").write_text(source)
    assert main(["lint", str(sim_tree)]) == 1
    out = capsys.readouterr().out
    assert f" {rule} " in out
    assert "finding(s)" in out


@pytest.mark.parametrize("name", ["missing", "missing.py"])
def test_exit_2_on_a_path_that_does_not_exist(tmp_path, capsys, name):
    """A typo in a lint path is a usage error, not a clean tree."""
    path = tmp_path / name
    assert main(["lint", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: lint path {path} does not exist\n"
    assert captured.out == ""


def test_exit_2_on_a_file_that_is_not_python(sim_tree, capsys):
    notes = sim_tree / "README.md"
    notes.write_text("# notes\n")
    assert main(["lint", str(notes)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        f"error: lint path {notes} is neither a directory nor a .py file\n"
    )
    assert captured.out == ""


def test_one_bad_path_fails_the_whole_command(sim_tree, tmp_path, capsys):
    (sim_tree / "bad.py").write_text(CLOCK_SRC)
    assert main(["lint", str(sim_tree), str(tmp_path / "typo")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1


def test_deep_flag_is_gone(sim_tree, capsys):
    """Every rule runs in the one pass; ``--deep`` is no longer an option."""
    (sim_tree / "ok.py").write_text(CLEAN_SRC)
    with pytest.raises(SystemExit) as exc:
        main(["lint", str(sim_tree), "--deep"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --deep" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Files the pass cannot read or parse
# ----------------------------------------------------------------------
def test_syntax_error_reported_not_raised(sim_tree, capsys):
    broken = sim_tree / "broken.py"
    broken.write_text("def f(:\n")
    assert main(["lint", str(broken), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [(f["rule"], f["path"], f["line"]) for f in payload["findings"]] == [
        ("E001", str(broken), 1)
    ]


def test_unreadable_file_reported_not_raised(sim_tree, capsys):
    latin = sim_tree / "latin.py"
    latin.write_bytes(b"name = '\xe9'\n")
    assert main(["lint", str(sim_tree)]) == 1
    out = capsys.readouterr().out
    assert f"{latin}:0:0: E000 unreadable file:" in out


def test_a_broken_file_does_not_hide_the_others(sim_tree, capsys):
    """One pass reports the file it cannot parse and the rule findings
    of the files it can."""
    (sim_tree / "broken.py").write_text("def f(:\n")
    (sim_tree / "neutral.py").write_text(NEUTRAL_BAD_SRC)
    assert main(["lint", str(sim_tree), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [(f["rule"], f["path"]) for f in payload["findings"]] == [
        ("E001", str(sim_tree / "broken.py")),
        ("R101", str(sim_tree / "neutral.py")),
    ]


# ----------------------------------------------------------------------
# One parse per file
# ----------------------------------------------------------------------
def test_each_file_is_parsed_once(sim_tree, monkeypatch, capsys):
    """Every rule runs over the one parse, and a file named both on its
    own and through its directory is still parsed once."""
    import ast
    from collections import Counter

    (sim_tree / "swallow.py").write_text(SWALLOW_SRC)
    (sim_tree / "neutral.py").write_text(NEUTRAL_BAD_SRC)
    (sim_tree / "ok.py").write_text(CLEAN_SRC)
    parsed = Counter()
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed[filename] += 1
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    assert main(["lint", str(sim_tree), str(sim_tree / "swallow.py")]) == 1
    assert parsed == Counter(
        {str(sim_tree / name): 1 for name in ("neutral.py", "ok.py", "swallow.py")}
    )


def test_a_file_named_twice_is_reported_once(sim_tree, capsys):
    (sim_tree / "swallow.py").write_text(SWALLOW_SRC)
    argv = ["lint", str(sim_tree), str(sim_tree / "swallow.py"), "--format", "json"]
    assert main(argv) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [(f["rule"], f["path"], f["line"]) for f in payload["findings"]] == [
        ("R004", str(sim_tree / "swallow.py"), 4)
    ]


# ----------------------------------------------------------------------
# JSON schema stability
# ----------------------------------------------------------------------
def test_json_schema_is_stable(sim_tree, capsys):
    (sim_tree / "bad.py").write_text(CLOCK_SRC)
    assert main(["lint", str(sim_tree), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert set(payload) == {"findings", "count"}
    assert payload["count"] == len(payload["findings"]) == 1
    assert set(payload["findings"][0]) == {"rule", "path", "line", "col", "message"}
    assert payload["findings"][0]["rule"] == "R104"


def test_json_schema_on_clean_tree(sim_tree, capsys):
    (sim_tree / "ok.py").write_text(CLEAN_SRC)
    assert main(["lint", str(sim_tree), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"findings": [], "count": 0}


def test_sarif_format_is_a_usage_error(sim_tree, capsys):
    (sim_tree / "ok.py").write_text(CLEAN_SRC)
    with pytest.raises(SystemExit) as exc:
        main(["lint", str(sim_tree), "--format", "sarif"])
    assert exc.value.code == 2
    assert "invalid choice: 'sarif'" in capsys.readouterr().err


def test_json_carries_chain_when_present():
    from repro.analysis.linter import Finding

    finding = Finding(
        "R110", "sim/x.py", 3, 1, "decider mutates sim",
        chain=("Policy.decide", "helper"),
    )
    assert finding.to_dict()["chain"] == ["Policy.decide", "helper"]


# ----------------------------------------------------------------------
# --explain
# ----------------------------------------------------------------------
#: Rules that have been deleted (EXPERIMENTS.md, "Earning the lint
#: rules").
DELETED_RULES = ("R002", "R003", "R005", "R102", "R103", "R109", "R111")


@pytest.mark.parametrize("rule", ("R999", "R105") + DELETED_RULES)
def test_explain_unknown_rule_is_a_usage_error(sim_tree, capsys, rule):
    (sim_tree / "ok.py").write_text(CLEAN_SRC)
    assert main(["lint", str(sim_tree), "--explain", rule]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: unknown rule {rule!r}")
    assert captured.err.count("\n") == 1


def test_explain_with_json_is_a_usage_error(sim_tree, capsys):
    """``--explain`` prints text before the report, so with ``--format
    json`` stdout would not parse."""
    (sim_tree / "ok.py").write_text(CLEAN_SRC)
    argv = ["lint", str(sim_tree), "--explain", "R104", "--format", "json"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: --explain prints text; it cannot be combined with"
        " --format json\n"
    )


DECISION_KERNEL_RULES = ("R110", "R112", "R113")


@pytest.mark.parametrize(
    "rule", ("R004", "R101", "R104") + DECISION_KERNEL_RULES
)
def test_explain_on_clean_tree_exits_zero(sim_tree, capsys, rule):
    """The decision-kernel rules also print the model their checks
    infer."""
    from repro.analysis.rules import RULE_RATIONALE

    (sim_tree / "ok.py").write_text(CLEAN_SRC)
    assert main(["lint", str(sim_tree), "--explain", rule]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"{rule}: {RULE_RATIONALE[rule]}\n")
    assert ("decision-kernel model:" in out) == (rule in DECISION_KERNEL_RULES)


def test_explain_prints_rationale_and_findings(sim_tree, capsys):
    (sim_tree / "bad.py").write_text(NEUTRAL_BAD_SRC)
    assert main(["lint", str(sim_tree), "--explain", "R101"]) == 1
    out = capsys.readouterr().out
    explanation, _, _ = out.partition("finding(s)")
    assert explanation.startswith("R101: ")
    # The explained rule's findings follow its rationale, before the
    # usual report lists every finding again.
    assert explanation.count("R101 bad.observe is result-neutral") == 2


# ----------------------------------------------------------------------
# Canonical ordering
# ----------------------------------------------------------------------
def test_finding_order_is_path_line_rule(sim_tree, capsys):
    """The pinned sort key: (path, line, rule id), whatever the rule.

    ``a.py`` triggers R104 at line 6 and R101 at line 9; ``b.py``
    triggers R104 again.  Output must interleave by path then line, not
    by the order the rules run in.
    """
    (sim_tree / "a.py").write_text(
        CLOCK_SRC + "\n\n"
        "def observe(sim):\n"
        "    sim.epoch = 0\n\n\n"
        "_RESULT_NEUTRAL = (\"observe\",)\n"
    )
    (sim_tree / "b.py").write_text(
        "import time\n\n"
        "_SIM_ENTRY_POINTS = (\"b.tick\",)\n\n\n"
        "def tick():\n"
        "    return time.monotonic()\n"
    )
    assert main(["lint", str(sim_tree), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    triples = [
        (f["path"], f["line"], f["rule"]) for f in payload["findings"]
    ]
    assert triples == sorted(triples)
    assert [t[1:] for t in triples] == [(6, "R104"), (9, "R101"), (7, "R104")]


# ----------------------------------------------------------------------
# Suppression-comment parsing
# ----------------------------------------------------------------------
def clock_findings(comment):
    source = CLOCK_SRC.replace("time.time()", f"time.time(){comment}")
    return lint_sources({"src/sim/x.py": source})


def test_suppression_single_id():
    assert clock_findings("") != []
    assert clock_findings("  # lint: ignore[R104]") == []


def test_suppression_multiple_ids():
    assert clock_findings("  # lint: ignore[R104,R101]") == []
    assert clock_findings("  # lint: ignore[R101,R104]") == []


def test_suppression_tolerates_whitespace():
    assert clock_findings("  #   lint:   ignore[ R104 , R101 ]") == []


def test_suppression_other_rule_does_not_apply():
    assert clock_findings("  # lint: ignore[R101]") != []


def test_suppression_bare_ignores_everything():
    assert clock_findings("  # lint: ignore") == []
