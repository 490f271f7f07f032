"""Fixture tests for the whole-program rules R101-R104.

Each rule gets at least two seeded violations plus a suppressed or
negative case, per the linter's fixture-test convention.  The final
test deep-lints the shipped package itself: the tree must stay clean
and the whole analysis must finish well inside the 10s budget.
"""

from __future__ import annotations

import pathlib
import time

import repro
from repro.analysis.deep import deep_lint_paths, deep_lint_sources
from repro.analysis.linter import format_findings

PACKAGE = pathlib.Path(repro.__file__).parent


def by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


# ----------------------------------------------------------------------
# R101: result-neutral purity
# ----------------------------------------------------------------------
R101_WATCH = """\
_RESULT_NEUTRAL = ("monitor.watch",)


class Watcher:
    def __init__(self):
        self.counts = {}

    def observe(self, sim):
        sim.asp.node4k = 1

    def note(self, epoch):
        self.counts[epoch] = 1


def poke(sim):
    sim.epoch = 3


def sanctioned(sim):  # lint: ignore[R101]
    sim.flags.append(1)
"""

R101_FREE = """\
def mutate(sim):
    sim.epoch = 9
"""


def test_r101_fires_on_registered_mutators():
    findings = deep_lint_sources({"src/monitor/watch.py": R101_WATCH})
    r101 = by_rule(findings, "R101")
    assert len(r101) == 2, format_findings(findings)
    messages = "\n".join(f.message for f in r101)
    assert "monitor.watch.Watcher.observe" in messages
    assert "monitor.watch.poke" in messages
    assert "sim.asp.node4k" in messages
    assert "sim.epoch" in messages


def test_r101_allows_own_instance_bookkeeping():
    # __init__ and note() write one attribute deep into self: the
    # sanctioned PhaseTimer-style bookkeeping pattern.
    findings = deep_lint_sources({"src/monitor/watch.py": R101_WATCH})
    for finding in by_rule(findings, "R101"):
        assert "note" not in finding.message
        assert "__init__" not in finding.message


def test_r101_suppression_comment_respected():
    findings = deep_lint_sources({"src/monitor/watch.py": R101_WATCH})
    assert all("sanctioned" not in f.message for f in findings)


def test_r101_ignores_unregistered_modules():
    findings = deep_lint_sources({"src/other/free.py": R101_FREE})
    assert by_rule(findings, "R101") == []


def test_r101_default_protection_survives_registry_deletion():
    # A sim/profile.py with its _RESULT_NEUTRAL declaration removed is
    # still covered by DEFAULT_RESULT_NEUTRAL: deleting the registry
    # entry cannot silently disable the purity check.
    source = (
        "class PhaseTimer:\n"
        "    def lap(self, sim):\n"
        "        sim.asp.replica_bytes = 0\n"
    )
    findings = deep_lint_sources({"src/repro/sim/profile.py": source})
    r101 = by_rule(findings, "R101")
    assert len(r101) == 1
    assert "sim.profile" in r101[0].message


# ----------------------------------------------------------------------
# R102: unit mismatch (unrelated dimensions)
# ----------------------------------------------------------------------
R102_SRC = """\
def pick(home: NodeId, owner: ThreadId):
    return home + owner


def tally(n_samples, total_bytes):
    return n_samples > total_bytes


def hushed(n_samples, total_bytes):
    return n_samples + total_bytes  # lint: ignore[R102]


def clean(n_samples, more_samples):
    return n_samples + more_samples
"""


def test_r102_fires_on_dimension_mixes():
    findings = deep_lint_sources({"src/policy/score.py": R102_SRC})
    r102 = by_rule(findings, "R102")
    assert len(r102) == 2, format_findings(findings)
    messages = "\n".join(f.message for f in r102)
    assert "node vs tid" in messages
    assert "samples vs bytes" in messages


def test_r102_suppression_and_negative():
    findings = deep_lint_sources({"src/policy/score.py": R102_SRC})
    for finding in findings:
        assert "hushed" not in finding.message
        assert "clean" not in finding.message


# ----------------------------------------------------------------------
# R103: missing page-size conversion
# ----------------------------------------------------------------------
R103_SRC = """\
def footprint(n_granules, nbytes):
    return n_granules + nbytes


def compare(n_chunks_2m, n_granules):
    return n_chunks_2m < n_granules


def converted(n_granules, nbytes):
    return n_granules * PAGE_4K + nbytes


def hushed(n_granules, nbytes):
    return n_granules + nbytes  # lint: ignore[R103]
"""


def test_r103_fires_and_names_the_factor():
    findings = deep_lint_sources({"src/vm/sizes.py": R103_SRC})
    r103 = by_rule(findings, "R103")
    assert len(r103) == 2, format_findings(findings)
    messages = "\n".join(f.message for f in r103)
    assert "convert with PAGE_4K" in messages
    assert "GRANULES_PER_2M (512)" in messages


def test_r103_conversion_and_suppression_are_silent():
    findings = deep_lint_sources({"src/vm/sizes.py": R103_SRC})
    for finding in findings:
        assert "converted" not in finding.message
        assert "hushed" not in finding.message


def test_r102_and_r103_partition_by_family():
    findings = deep_lint_sources(
        {"src/policy/score.py": R102_SRC, "src/vm/sizes.py": R103_SRC}
    )
    assert {f.rule for f in findings} == {"R102", "R103"}
    # Page/byte-family mixes are R103, everything else R102 — never both.
    for finding in by_rule(findings, "R102"):
        assert finding.path == "src/policy/score.py"
    for finding in by_rule(findings, "R103"):
        assert finding.path == "src/vm/sizes.py"


# ----------------------------------------------------------------------
# R104: randomness / wall-clock reachable from sim entry points
# ----------------------------------------------------------------------
R104_ENGINE = """\
import numpy as np

from util import jitter, rng_for, rng_from_state, sanctioned


class Simulation:
    def run(self):
        self.step()
        rng_for(0)
        rng_from_state(None)
        sanctioned()
        return jitter()

    def step(self):
        return np.random.rand()
"""

R104_UTIL = """\
import time

import numpy as np


def jitter():
    return time.time()


def rng_for(seed):
    return np.random.default_rng(seed)


def rng_from_state(state):
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


def sanctioned():
    return time.perf_counter()  # lint: ignore[R002]


def unreachable():
    return time.monotonic()
"""


def r104_findings():
    sources = {
        "src/repro/sim/engine.py": R104_ENGINE,
        "src/repro/util.py": R104_UTIL,
    }
    return deep_lint_sources(sources)


def test_r104_reports_reachable_sinks_with_chains():
    r104 = by_rule(r104_findings(), "R104")
    assert len(r104) == 2, format_findings(r104)
    messages = "\n".join(f.message for f in r104)
    assert "np.random.rand()" in messages
    assert "time.time()" in messages
    # The call chain from the entry point is spelled out.
    assert "Simulation.run -> util.jitter" in messages


def test_r104_skips_unreachable_and_sanctioned_sinks():
    messages = "\n".join(f.message for f in r104_findings())
    assert "time.monotonic" not in messages  # unreachable from run()
    assert "perf_counter" not in messages  # carries lint: ignore[R002]
    # rng_for and rng_from_state are the sanctioned construction sites
    assert "default_rng" not in messages


def test_r104_entry_point_registry_extends_roots():
    source = (
        "import time\n"
        "\n"
        "_SIM_ENTRY_POINTS = ('Daemon.tick',)\n"
        "\n"
        "\n"
        "class Daemon:\n"
        "    def tick(self):\n"
        "        return time.monotonic()\n"
    )
    findings = deep_lint_sources({"src/policyd.py": source})
    r104 = by_rule(findings, "R104")
    assert len(r104) == 1
    assert "time.monotonic" in r104[0].message


def test_r104_silent_without_entry_points():
    source = "import time\n\n\ndef helper():\n    return time.time()\n"
    findings = deep_lint_sources({"src/loose.py": source})
    assert by_rule(findings, "R104") == []


# ----------------------------------------------------------------------
# The shipped tree itself
# ----------------------------------------------------------------------
def test_shipped_tree_deep_lints_clean_within_budget():
    t0 = time.perf_counter()
    findings = deep_lint_paths([PACKAGE])
    elapsed = time.perf_counter() - t0
    assert findings == [], format_findings(findings)
    # ISSUE acceptance bound: single-process analysis of src/ < 10s.
    assert elapsed < 10.0, f"deep analysis took {elapsed:.2f}s"


def test_deep_rule_ids_are_stable():
    # Baselines and suppression comments name rules by id, so the rules
    # that remain after R105-R108 left keep theirs, each with a
    # rationale for --explain.
    from repro.analysis.deep import ALL_DEEP_RULES, RULE_RATIONALE

    ids = [rule.rule_id for rule in ALL_DEEP_RULES]
    assert ids == [
        "R101", "R102", "R103", "R104",
        "R109", "R110", "R111", "R112", "R113",
    ]
    assert sorted(RULE_RATIONALE) == ids


def test_shipped_profiler_and_invariants_are_verified_neutral():
    # The R101 registries actually cover the measurement modules: every
    # function in sim/profile.py and analysis/invariants.py is analyzed
    # and passes the purity predicate (the clean deep lint above is not
    # vacuous).
    from repro.analysis.callgraph import Project
    from repro.analysis.deep import ResultNeutralPurity, _covers

    project = Project.from_paths([PACKAGE])
    project.analyze()
    covered = [
        q
        for q in project.functions
        if _covers("sim.profile", q) or _covers("analysis.invariants", q)
    ]
    assert len(covered) >= 15
    assert any("PhaseTimer.lap" in q for q in covered)
    assert any("InvariantChecker.after_epoch" in q for q in covered)
    assert list(ResultNeutralPurity().check(project)) == []
