"""CLI contract tests for ``repro lint``.

Pins the externally observable behaviour CI depends on: exit codes
(0 clean / 1 findings / 2 usage error), the ``--format json`` schema,
canonical finding order, suppression-comment parsing edge cases, and
the sim-path scoping rules.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.linter import FileContext, lint_source
from repro.cli import main

CLEAN_SRC = "def f(x):\n    return x + 1\n"

# R002 (wall-clock in sim code) — fires only under a sim-path.
CLOCK_SRC = "import time\n\n\ndef stamp():\n    return time.time()\n"

# Shallow-clean but R101 under --deep (registered measurement code that
# writes simulation state).
DEEP_BAD_SRC = (
    "def observe(sim):\n"
    "    sim.epoch = 0\n\n\n"
    "_RESULT_NEUTRAL = (\"observe\",)\n"
)


@pytest.fixture
def sim_tree(tmp_path):
    """A throwaway tree whose files lint as simulation code."""
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


def test_exit_1_on_findings(sim_tree, capsys):
    (sim_tree / "bad.py").write_text(CLOCK_SRC)
    assert main(["lint", str(sim_tree)]) == 1
    out = capsys.readouterr().out
    assert "R002" in out
    assert "finding(s)" in out


@pytest.mark.parametrize("deep", [False, True], ids=["shallow", "deep"])
@pytest.mark.parametrize("name", ["missing", "missing.py"])
def test_exit_2_on_a_path_that_does_not_exist(tmp_path, capsys, deep, name):
    """A typo in a lint path is a usage error, not a clean tree."""
    path = tmp_path / name
    argv = ["lint", str(path)] + (["--deep"] if deep else [])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: lint path {path} does not exist\n"
    assert captured.out == ""


@pytest.mark.parametrize("deep", [False, True], ids=["shallow", "deep"])
def test_exit_2_on_a_file_that_is_not_python(sim_tree, capsys, deep):
    notes = sim_tree / "README.md"
    notes.write_text("# notes\n")
    argv = ["lint", str(notes)] + (["--deep"] if deep else [])
    assert main(argv) == 2
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
    assert payload["findings"][0]["rule"] == "R002"


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
#: Deep rules that have been deleted (EXPERIMENTS.md, "Earning the deep
#: lint rules").
DELETED_DEEP_RULES = ("R102", "R103", "R109", "R111")


@pytest.mark.parametrize("rule", ("R999", "R105") + DELETED_DEEP_RULES)
def test_explain_unknown_rule_is_a_usage_error(sim_tree, capsys, rule):
    (sim_tree / "ok.py").write_text(CLEAN_SRC)
    assert main(["lint", str(sim_tree), "--deep", "--explain", rule]) == 2
    assert f"error: unknown deep rule {rule!r}" in capsys.readouterr().err


DECISION_KERNEL_RULES = ("R110", "R112", "R113")


@pytest.mark.parametrize("rule", ("R101", "R104") + DECISION_KERNEL_RULES)
def test_explain_on_clean_tree_exits_zero(sim_tree, capsys, rule):
    """``--explain`` implies ``--deep``; the decision-kernel rules also
    print the model their checks infer."""
    from repro.analysis.deep import RULE_RATIONALE

    (sim_tree / "ok.py").write_text(CLEAN_SRC)
    assert main(["lint", str(sim_tree), "--explain", rule]) == 0
    out = capsys.readouterr().out
    assert out.startswith(f"{rule}: {RULE_RATIONALE[rule]}\n")
    assert ("decision-kernel model:" in out) == (rule in DECISION_KERNEL_RULES)


def test_explain_prints_rationale_and_findings(sim_tree, capsys):
    (sim_tree / "bad.py").write_text(DEEP_BAD_SRC)
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
    """The pinned sort key: (path, line, rule id) across rule families.

    ``a.py`` triggers shallow R002 at line 5 and deep R101 at line 8;
    ``b.py`` triggers R002 again.  Output must interleave by path then
    line, not by which rule family produced the finding.
    """
    (sim_tree / "a.py").write_text(
        "import time\n\n\n"
        "def stamp():\n"
        "    return time.time()\n\n\n"
        "def observe(sim):\n"
        "    sim.epoch = 0\n\n\n"
        "_RESULT_NEUTRAL = (\"observe\",)\n"
    )
    (sim_tree / "b.py").write_text(CLOCK_SRC)
    assert main(["lint", str(sim_tree), "--deep", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    triples = [
        (f["path"], f["line"], f["rule"]) for f in payload["findings"]
    ]
    assert triples == sorted(triples)
    assert [t[2] for t in triples] == ["R002", "R101", "R002"]


# ----------------------------------------------------------------------
# --deep through the CLI
# ----------------------------------------------------------------------
def test_deep_flag_adds_whole_program_findings(sim_tree, capsys):
    (sim_tree / "sizes.py").write_text(DEEP_BAD_SRC)
    assert main(["lint", str(sim_tree)]) == 0  # shallow rules are blind
    capsys.readouterr()
    assert main(["lint", str(sim_tree), "--deep"]) == 1
    captured = capsys.readouterr()
    assert "R101" in captured.out
    assert "deep analysis:" in captured.err  # wall-clock reported


def test_deep_flag_clean_tree(sim_tree, capsys):
    (sim_tree / "ok.py").write_text(CLEAN_SRC)
    assert main(["lint", str(sim_tree), "--deep"]) == 0
    assert "no findings" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Suppression-comment parsing
# ----------------------------------------------------------------------
def clock_findings(comment):
    source = CLOCK_SRC.replace("time.time()", f"time.time(){comment}")
    return lint_source(source, path="sim/x.py")


def test_suppression_single_id():
    assert clock_findings("") != []
    assert clock_findings("  # lint: ignore[R002]") == []


def test_suppression_multiple_ids():
    assert clock_findings("  # lint: ignore[R002,R005]") == []
    assert clock_findings("  # lint: ignore[R005,R002]") == []


def test_suppression_tolerates_whitespace():
    assert clock_findings("  #   lint:   ignore[ R002 , R005 ]") == []


def test_suppression_other_rule_does_not_apply():
    assert clock_findings("  # lint: ignore[R005]") != []


def test_suppression_bare_ignores_everything():
    assert clock_findings("  # lint: ignore") == []


# ----------------------------------------------------------------------
# Sim-path scoping (SIM_PATH_ROOTS regression)
# ----------------------------------------------------------------------
def is_sim_path(path):
    return FileContext("x = 1\n", path).is_sim_path


def test_sim_paths_inside_the_package():
    assert is_sim_path("src/repro/sim/engine.py")
    assert is_sim_path("src/repro/vm/layout.py")
    assert not is_sim_path("src/repro/cli.py")
    assert not is_sim_path("src/repro/analysis/linter.py")


def test_checkout_directory_names_do_not_leak():
    # Regression: a checkout under .../sim/... or .../core/... used to
    # mark *every* file sim-path; only components below the package
    # root may count.
    assert not is_sim_path("/home/u/sim/checkout/src/repro/cli.py")
    assert not is_sim_path("/data/core/repos/src/repro/analysis/rules.py")
    assert is_sim_path("/home/u/core/checkout/src/repro/sim/engine.py")
    assert not is_sim_path("/opt/core/stuff.py")


def test_fixture_trees_and_relative_snippets_still_match():
    assert is_sim_path("tests/analysis/fixtures/sim/x.py")
    assert is_sim_path("sim/snippet.py")  # lint_source() convention
    assert not is_sim_path("notes/readme.py")
