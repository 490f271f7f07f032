"""CLI contract tests for ``repro lint``.

Pins the externally observable behaviour CI depends on: exit codes
(0 clean / 1 findings / 2 usage error / 3 missing-or-unknown-schema
baseline), the ``--format json`` schema, the SARIF output, canonical
finding order, the baseline workflow, suppression-comment parsing edge
cases, and the sim-path scoping rules.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis.linter import FileContext, lint_source
from repro.cli import main

CLEAN_SRC = "def f(x):\n    return x + 1\n"

# R002 (wall-clock in sim code) — fires only under a sim-path.
CLOCK_SRC = "import time\n\n\ndef stamp():\n    return time.time()\n"

# Shallow-clean but R103 under --deep (granules + bytes, no conversion).
DEEP_BAD_SRC = "def footprint(n_granules, nbytes):\n    return n_granules + nbytes\n"


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


def test_exit_2_on_baseline_update_without_baseline(sim_tree, capsys):
    (sim_tree / "ok.py").write_text(CLEAN_SRC)
    assert main(["lint", str(sim_tree), "--baseline-update"]) == 2
    assert "--baseline-update requires --baseline" in capsys.readouterr().err


def test_exit_3_on_missing_baseline(sim_tree, tmp_path, capsys):
    (sim_tree / "ok.py").write_text(CLEAN_SRC)
    absent = tmp_path / "absent.json"
    assert main(["lint", str(sim_tree), "--baseline", str(absent)]) == 3
    err = capsys.readouterr().err
    assert "does not exist" in err
    assert "--baseline-update" in err


def test_exit_3_on_unknown_baseline_schema(sim_tree, tmp_path, capsys):
    (sim_tree / "ok.py").write_text(CLEAN_SRC)
    stale = tmp_path / "stale.json"
    stale.write_text(
        json.dumps(
            {"schema": "repro-lint-baseline/99", "version": 99, "counts": {}}
        )
    )
    assert main(["lint", str(sim_tree), "--baseline", str(stale)]) == 3
    err = capsys.readouterr().err
    assert "unknown schema" in err
    assert "--baseline-update" in err


def test_exit_2_on_malformed_baseline(sim_tree, tmp_path, capsys):
    (sim_tree / "ok.py").write_text(CLEAN_SRC)
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["lint", str(sim_tree), "--baseline", str(bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_legacy_unstamped_baseline_still_loads(sim_tree, tmp_path, capsys):
    # Version-1 files written before the ``schema`` stamp existed carry
    # no ``schema`` key; they must keep working.
    (sim_tree / "bad.py").write_text(CLOCK_SRC)
    baseline = tmp_path / "legacy.json"
    args = ["lint", str(sim_tree), "--baseline", str(baseline)]
    assert main(args + ["--baseline-update"]) == 0
    payload = json.loads(baseline.read_text())
    assert payload["schema"] == "repro-lint-baseline/1"  # stamped on write
    del payload["schema"]
    baseline.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(args) == 0


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


# ----------------------------------------------------------------------
# SARIF output
# ----------------------------------------------------------------------
def test_sarif_output_is_valid_2_1_0(sim_tree, capsys):
    (sim_tree / "bad.py").write_text(CLOCK_SRC)
    assert main(["lint", str(sim_tree), "--format", "sarif"]) == 1
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in log["$schema"]
    (run,) = log["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    rule_ids = [rule["id"] for rule in driver["rules"]]
    assert rule_ids == sorted(rule_ids)
    # Every shallow + deep rule is declared up front, findings or not.
    for rule_id in ("R002", "R101", "R109", "R113"):
        assert rule_id in rule_ids
    (result,) = run["results"]
    assert result["ruleId"] == "R002"
    assert rule_ids[result["ruleIndex"]] == "R002"
    assert result["level"] == "error"
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] >= 1 and region["startColumn"] >= 1
    uri = result["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
    assert "\\" not in uri


def test_sarif_clean_tree_still_emits_log(sim_tree, capsys):
    (sim_tree / "ok.py").write_text(CLEAN_SRC)
    assert main(["lint", str(sim_tree), "--format", "sarif"]) == 0
    log = json.loads(capsys.readouterr().out)
    assert log["runs"][0]["results"] == []


def test_sarif_carries_chain_as_properties():
    from repro.analysis.linter import Finding
    from repro.analysis.sarif import to_sarif

    finding = Finding(
        "R110", "sim/x.py", 3, 1, "decider mutates sim",
        chain=("Policy.decide", "helper"),
    )
    (result,) = to_sarif([finding])["runs"][0]["results"]
    assert result["properties"]["chain"] == ["Policy.decide", "helper"]


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
@pytest.mark.parametrize("rule", ["R999", "R105"])
def test_explain_unknown_rule_is_a_usage_error(sim_tree, capsys, rule):
    (sim_tree / "ok.py").write_text(CLEAN_SRC)
    assert main(["lint", str(sim_tree), "--deep", "--explain", rule]) == 2
    assert f"error: unknown deep rule {rule!r}" in capsys.readouterr().err


DECISION_KERNEL_RULES = ("R109", "R110", "R111", "R112", "R113")


@pytest.mark.parametrize(
    "rule", ("R101", "R102", "R103", "R104") + DECISION_KERNEL_RULES
)
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
    assert main(["lint", str(sim_tree), "--explain", "R103"]) == 1
    out = capsys.readouterr().out
    explanation, _, _ = out.partition("finding(s)")
    assert explanation.startswith("R103: ")
    # The explained rule's findings follow its rationale, before the
    # usual report lists every finding again.
    assert explanation.count("R103 missing conversion in footprint()") == 2


# ----------------------------------------------------------------------
# Canonical ordering
# ----------------------------------------------------------------------
def test_finding_order_is_path_line_rule(sim_tree, capsys):
    """The pinned sort key: (path, line, rule id) across rule families.

    ``a.py`` triggers shallow R002 at line 5 and deep R103 at line 8;
    ``b.py`` triggers R002 again.  Output must interleave by path then
    line, not by which rule family produced the finding.
    """
    (sim_tree / "a.py").write_text(
        "import time\n\n\n"
        "def stamp():\n"
        "    return time.time()\n\n\n"
        "def footprint(n_granules, nbytes):\n"
        "    return n_granules + nbytes\n"
    )
    (sim_tree / "b.py").write_text(CLOCK_SRC)
    assert main(["lint", str(sim_tree), "--deep", "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    triples = [
        (f["path"], f["line"], f["rule"]) for f in payload["findings"]
    ]
    assert triples == sorted(triples)
    assert [t[2] for t in triples] == ["R002", "R103", "R002"]


# ----------------------------------------------------------------------
# --deep through the CLI
# ----------------------------------------------------------------------
def test_deep_flag_adds_whole_program_findings(sim_tree, capsys):
    (sim_tree / "sizes.py").write_text(DEEP_BAD_SRC)
    assert main(["lint", str(sim_tree)]) == 0  # shallow rules are blind
    capsys.readouterr()
    assert main(["lint", str(sim_tree), "--deep"]) == 1
    captured = capsys.readouterr()
    assert "R103" in captured.out
    assert "deep analysis:" in captured.err  # wall-clock reported


def test_deep_flag_clean_tree(sim_tree, capsys):
    (sim_tree / "ok.py").write_text(CLEAN_SRC)
    assert main(["lint", str(sim_tree), "--deep"]) == 0
    assert "no findings" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Baseline workflow end to end
# ----------------------------------------------------------------------
def test_baseline_workflow(sim_tree, tmp_path, capsys):
    (sim_tree / "bad.py").write_text(CLOCK_SRC)
    baseline = tmp_path / "baseline.json"

    assert main(["lint", str(sim_tree)]) == 1
    capsys.readouterr()

    # Record the debt...
    args = ["lint", str(sim_tree), "--baseline", str(baseline)]
    assert main(args + ["--baseline-update"]) == 0
    assert baseline.exists()
    capsys.readouterr()

    # ...now the same tree passes against the baseline...
    assert main(args) == 0
    capsys.readouterr()

    # ...but a *new* finding still fails, and only it is reported.
    (sim_tree / "worse.py").write_text(CLOCK_SRC)
    assert main(args) == 1
    out = capsys.readouterr().out
    assert "worse.py" in out
    assert "bad.py" not in out


def test_baseline_update_covers_deep_findings(sim_tree, tmp_path, capsys):
    (sim_tree / "sizes.py").write_text(DEEP_BAD_SRC)
    baseline = tmp_path / "baseline.json"
    args = ["lint", str(sim_tree), "--deep", "--baseline", str(baseline)]
    assert main(args + ["--baseline-update"]) == 0
    assert main(args) == 0
    payload = json.loads(baseline.read_text())
    assert any(key.startswith("R103|") for key in payload["counts"])


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
