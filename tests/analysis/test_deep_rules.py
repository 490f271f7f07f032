"""Fixture tests for the whole-program rules R101 and R104, and the pinned
mutants of every kept deep rule.

R101 and R104 get seeded violations plus suppressed and negative cases,
per the linter's fixture-test convention (R110 and R112 have theirs in
``test_decisionflow.py``).  The shipped package must deep-lint clean
well inside the time budget.  Each kept rule earned its place in a
mutation study by flagging a mutant that no test, runtime check or
``validate`` claim catches; ``TestPinnedMutants`` applies each such
mutant to the shipped source and asserts that its rule still fires.
"""

from __future__ import annotations

import functools
import pathlib
import time

import pytest

import repro
from repro.analysis.linter import format_findings
from tests.deep_lint import deep_lint_paths, deep_lint_sources

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
    # that remain after R102, R103, R105-R109 and R111 left keep
    # theirs, each with a rationale for --explain.
    from repro.analysis.deep import ALL_DEEP_RULES, RULE_RATIONALE

    ids = [rule.rule_id for rule in ALL_DEEP_RULES]
    assert ids == ["R101", "R104", "R110", "R112", "R113"]
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
    assert any("InvariantChecker.after_tenant_epoch" in q for q in covered)
    assert list(ResultNeutralPurity().check(project)) == []


def test_function_level_imports_keep_the_sim_stack_reachable():
    # The runners import the simulation stack inside build_simulation
    # and execute_scenario, and the workload registry loads its suites
    # on first use; R104 must still follow those imports from its entry
    # points down to the stream bank and the epoch loops.
    from repro.analysis.callgraph import Project
    from repro.analysis.deep import ReachableNondeterminism

    project = Project.from_paths([PACKAGE])
    entries = ReachableNondeterminism._resolve_entries(project)
    assert [q.rsplit(".", 2)[-2:] for q in entries] == [
        ["scenario_runner", "run_scenario"],
        ["Simulation", "run"],
    ]
    reach = project.reachable_from(entries)
    for function in (
        "scenario_runner.execute_scenario",
        "registry._catalog",
        "engine.Tenant._run_epoch",
        "host.Host.step_epoch",
        "streambank.StreamBank._generate_row",
    ):
        assert any(q.endswith("." + function) for q in reach), function


# ----------------------------------------------------------------------
# Pinned mutants: catches no test, runtime check or validate claim makes
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=1)
def shipped_sources():
    """The shipped package as an in-memory ``{path: source}`` tree."""
    return {
        f"src/repro/{path.relative_to(PACKAGE).as_posix()}": path.read_text(
            encoding="utf-8"
        )
        for path in sorted(PACKAGE.rglob("*.py"))
    }


def mutated_tree(relpath, edits):
    """The shipped tree with exact-string edits applied to one file."""
    sources = dict(shipped_sources())
    key = f"src/repro/{relpath}"
    for old, new in edits:
        assert sources[key].count(old) == 1, f"mutant site moved in {key}"
        sources[key] = sources[key].replace(old, new)
    return sources


#: id -> (rule, file, edits, text the rule's finding must contain)
PINNED_MUTANTS = {
    "R101-checker-clears-collapse-blocks": (
        "R101",
        "analysis/invariants.py",
        [(
            "            check_action_conservation(sim)\n",
            "            check_action_conservation(sim)\n"
            "            sim.asp.clear_collapse_blocks()\n",
        )],
        "InvariantChecker.after_tenant_epoch",
    ),
    "R104-scenario-wall-clock-deadline": (
        "R104",
        "experiments/scenario_runner.py",
        [
            ("import dataclasses\n", "import dataclasses\nimport time\n"),
            (
                "    next_id = 0\n\n"
                "    while host.epoch < scenario.max_host_epochs and (",
                "    next_id = 0\n"
                "    deadline = time.monotonic() + 2.0\n\n"
                "    while host.epoch < scenario.max_host_epochs"
                " and time.monotonic() < deadline and (",
            ),
        ],
        "time.monotonic() reachable from sim entry point via "
        "scenario_runner.run_scenario",
    ),
    "R110-conservative-writes-alloc-flag": (
        "R110",
        "core/conservative.py",
        [(
            "            yield ToggleThpAlloc(True)\n"
            "            decision.enabled_alloc = True\n"
            "        return decision",
            "            sim.thp.alloc_enabled = True\n"
            "            decision.enabled_alloc = True\n"
            "        return decision",
        )],
        "may mutate sim.thp.alloc_enabled",
    ),
    "R110-reactive-writes-thp-flags": (
        "R110",
        "core/reactive.py",
        [(
            "            yield ToggleThpAlloc(False)\n"
            "            yield ToggleThpPromotion(False)\n",
            "            sim.thp.alloc_enabled = False\n"
            "            sim.thp.promotion_enabled = False\n",
        )],
        "may mutate sim.thp.promotion_enabled",
    ),
    "R110-conservative-clears-blocks-directly": (
        "R110",
        "core/conservative.py",
        [("            yield ClearCollapseBlocks()\n",
          "            sim.asp.clear_collapse_blocks()\n")],
        "may mutate sim.asp.collapse_blocked",
    ),
    "R112-interleave-drops-bytes-migrated": (
        "R112",
        "sim/engine.py",
        [(
            "        summary.bytes_migrated += moved\n"
            "        summary.migrated_4k += moved // PAGE_4K\n",
            "        summary.migrated_4k += moved // PAGE_4K\n",
        )],
        "InterleaveRegion.counters declares 'bytes_migrated'",
    ),
    "R112-collapse-drops-collapses-2m": (
        "R112",
        "sim/engine.py",
        [("        if ok:\n            summary.collapses_2m += 1\n", "")],
        "Collapse2M.counters declares 'collapses_2m'",
    ),
    "R113-interleave-claims-nothing": (
        "R113",
        "sim/decisions.py",
        [(
            "        if self.page_id is None:\n"
            "            return ()\n"
            "        return ((\"page\", self.page_id),)\n\n"
            "    def payload(self) -> dict:\n"
            "        g = np.asarray(self.granules)\n"
            "        return {\n"
            "            \"kind\": \"InterleaveRegion\",",
            "        return ()\n\n"
            "    def payload(self) -> dict:\n"
            "        g = np.asarray(self.granules)\n"
            "        return {\n"
            "            \"kind\": \"InterleaveRegion\",",
        )],
        "InterleaveRegion declares domain 'page' but targets() claims nothing",
    ),
    "R113-replicate-claims-pt-key": (
        "R113",
        "sim/decisions.py",
        [(
            "        return ((\"page\", self.page_id),)\n\n"
            "    def payload(self) -> dict:\n"
            "        return {\"kind\": \"ReplicatePage\"",
            "        return ((\"pt\", self.page_id),)\n\n"
            "    def payload(self) -> dict:\n"
            "        return {\"kind\": \"ReplicatePage\"",
        )],
        "ReplicatePage declares domain 'page' but targets() claims pt keys",
    ),
}


@pytest.mark.parametrize("mutant", sorted(PINNED_MUTANTS))
def test_kept_rule_fires_on_its_unique_mutant(mutant):
    from repro.analysis.deep import ALL_DEEP_RULES

    rule, relpath, edits, named = PINNED_MUTANTS[mutant]
    rules = [r() for r in ALL_DEEP_RULES if r.rule_id == rule]
    findings = deep_lint_sources(mutated_tree(relpath, edits), rules)
    assert any(named in f.message for f in findings), (
        f"{rule} missed its pinned mutant {mutant}:\n"
        + format_findings(findings)
    )
