"""Fixture-driven tests for lint rules R002-R005.

Each rule has a ``*_bad.py`` fixture that must trip it (and only it)
and a ``*_clean.py`` counterexample that must lint clean under every
rule.  Path-scoped rules (R003, R005, the wall-clock half of R002)
keep their fixtures under ``fixtures/sim/`` so the scoping logic is
exercised by the same layout the real tree uses.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis.linter import lint_paths, lint_source
from repro.analysis.rules import ALL_RULES

FIXTURES = pathlib.Path(__file__).parent / "fixtures"

BAD_FIXTURES = [
    ("r002_bad.py", "R002"),
    ("sim/r002_time_bad.py", "R002"),
    ("sim/r003_bad.py", "R003"),
    ("r004_bad.py", "R004"),
    ("sim/r005_bad.py", "R005"),
]

CLEAN_FIXTURES = [
    "r002_clean.py",
    "sim/r002_time_clean.py",
    "sim/r003_clean.py",
    "r004_clean.py",
    "sim/r005_clean.py",
]


@pytest.mark.parametrize("name,rule_id", BAD_FIXTURES)
def test_bad_fixture_trips_exactly_its_rule(name, rule_id):
    findings = lint_paths([FIXTURES / name])
    assert findings, f"{name} produced no findings"
    assert {f.rule for f in findings} == {rule_id}


@pytest.mark.parametrize("name", CLEAN_FIXTURES)
def test_clean_fixture_has_no_findings(name):
    assert lint_paths([FIXTURES / name]) == []


def test_bad_fixture_counts():
    """Every distinct defect in a bad fixture is reported separately."""
    expected = {
        "r002_bad.py": 3,  # two np.random calls + one random.shuffle
        "sim/r002_time_bad.py": 2,  # time.time + datetime.now
        "sim/r003_bad.py": 3,  # dict loop, sum-over-values, set loop
        "r004_bad.py": 2,  # except Exception + bare except
        "sim/r005_bad.py": 4,  # two mutable defaults + == and != on floats
    }
    for name, count in expected.items():
        findings = lint_paths([FIXTURES / name])
        assert len(findings) == count, (name, [f.message for f in findings])


def test_sim_scoped_rules_skip_non_sim_paths():
    source = (FIXTURES / "sim" / "r003_bad.py").read_text()
    assert lint_source(source, "sim/r003_bad.py")
    assert lint_source(source, "tools/r003_bad.py") == []


def test_suppression_comment_silences_named_rule():
    source = (
        "def f(d: dict) -> float:\n"
        "    total = 0.0\n"
        "    for k, v in d.items():  # lint: ignore[R003]\n"
        "        total += v\n"
        "    return total\n"
    )
    assert lint_source(source, "sim/snippet.py") == []
    # The suppression is per-rule: a different id does not silence it.
    unsuppressed = source.replace("[R003]", "[R004]")
    assert [f.rule for f in lint_source(unsuppressed, "sim/snippet.py")] == [
        "R003"
    ]


def test_r002_sanctions_generator_construction_sites():
    """R002 skips calls inside the two sanctioned sites: the seeded
    derivation (rng_for) and the state replay the stream banks use
    (rng_from_state)."""
    source = (
        "import numpy as np\n"
        "\n"
        "\n"
        "def rng_from_state(state):\n"
        "    rng = np.random.default_rng()\n"
        "    rng.bit_generator.state = state\n"
        "    return rng\n"
        "\n"
        "\n"
        "def unsanctioned(state):\n"
        "    return np.random.default_rng()\n"
    )
    findings = lint_source(source, "x.py")
    assert [f.rule for f in findings] == ["R002"]
    assert findings[0].line == 11  # only the call outside rng_from_state


def test_blanket_suppression_comment():
    source = "import numpy as np\nrng = np.random.default_rng()  # lint: ignore\n"
    assert lint_source(source, "x.py") == []


def test_rule_subset_selection():
    """Running only R004 ignores defects other rules would flag."""
    source = (FIXTURES / "r002_bad.py").read_text()
    (r004,) = [rule() for rule in ALL_RULES if rule.rule_id == "R004"]
    assert lint_source(source, "x.py", rules=[r004]) == []


def test_syntax_error_reported_not_raised(tmp_path):
    broken = tmp_path / "broken.py"
    broken.write_text("def f(:\n")
    findings = lint_paths([broken])
    assert [f.rule for f in findings] == ["E001"]


def test_finding_formats():
    findings = lint_paths([FIXTURES / "r004_bad.py"])
    text = findings[0].format_text()
    assert "R004" in text and text.count(":") >= 3
    payload = findings[0].to_dict()
    assert payload["rule"] == "R004" and payload["line"] > 0
