"""Fixture tests for the whole-program rules R101 and R104, and the pinned
mutants of every rule.

R101 and R104 get seeded violations plus suppressed and negative cases,
per the linter's fixture-test convention (R004 has its own in
``test_rules.py``; R110, R112 and R113 in ``test_decisionflow.py``).
The shipped package must lint clean well inside the time budget.  Each
rule earned its place in a mutation study by flagging a mutant that no
test, runtime check or ``validate`` claim catches;
``test_kept_rule_fires_on_its_unique_mutant`` applies each such mutant
to the shipped source and asserts that its rule still fires.
"""

from __future__ import annotations

import functools
import pathlib
import time

import pytest

import repro
from repro.analysis.linter import format_findings
from tests.lint_helpers import lint_sources, lint_tree

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
    findings = lint_sources({"src/monitor/watch.py": R101_WATCH})
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
    findings = lint_sources({"src/monitor/watch.py": R101_WATCH})
    for finding in by_rule(findings, "R101"):
        assert "note" not in finding.message
        assert "__init__" not in finding.message


def test_r101_suppression_comment_respected():
    findings = lint_sources({"src/monitor/watch.py": R101_WATCH})
    assert all("sanctioned" not in f.message for f in findings)


def test_r101_ignores_unregistered_modules():
    findings = lint_sources({"src/other/free.py": R101_FREE})
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
    findings = lint_sources({"src/repro/sim/profile.py": source})
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
    return time.perf_counter()  # lint: ignore[R104]


def unreachable():
    return time.monotonic()
"""


def r104_findings():
    sources = {
        "src/repro/sim/engine.py": R104_ENGINE,
        "src/repro/util.py": R104_UTIL,
    }
    return lint_sources(sources)


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
    assert "perf_counter" not in messages  # carries lint: ignore[R104]
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
    findings = lint_sources({"src/policyd.py": source})
    r104 = by_rule(findings, "R104")
    assert len(r104) == 1
    assert "time.monotonic" in r104[0].message


def test_r104_silent_without_entry_points():
    source = "import time\n\n\ndef helper():\n    return time.time()\n"
    findings = lint_sources({"src/loose.py": source})
    assert by_rule(findings, "R104") == []


#: id -> (import, call): one reachable call per sink class R104 watches,
#: unseeded generators and wall-clock reads included.
R104_SINKS = {
    "np-random-draw": ("import numpy as np", "np.random.normal(0.0, 1.0)"),
    "numpy-unseeded-generator": ("import numpy", "numpy.random.default_rng()"),
    "stdlib-random": ("import random", "random.shuffle(items)"),
    "time-monotonic": ("import time", "time.monotonic()"),
    "datetime-now": ("from datetime import datetime", "datetime.now()"),
    "date-today": ("import datetime", "datetime.date.today()"),
    # Sinks imported by name or under another name.
    "stdlib-random-by-name": ("from random import randrange", "randrange(10)"),
    "numpy-generator-by-name": (
        "from numpy.random import default_rng", "default_rng()"
    ),
    "numpy-random-alias": ("import numpy.random as npr", "npr.default_rng()"),
    "perf-counter-by-name": ("from time import perf_counter", "perf_counter()"),
}


@pytest.mark.parametrize(
    "imports,call", list(R104_SINKS.values()), ids=list(R104_SINKS)
)
def test_r104_flags_each_sink_class(imports, call):
    source = (
        f"{imports}\n\n\n"
        "class Simulation:\n"
        "    def run(self, items):\n"
        f"        return {call}\n"
    )
    r104 = by_rule(lint_sources({"src/repro/sim/engine.py": source}), "R104")
    sink = call.split("(")[0]
    assert [(f.line, f.message.split(" reachable")[0]) for f in r104] == [
        (6, f"{sink}()")
    ]


def test_r104_matches_a_call_by_what_its_name_imports():
    # ``import numpy.random`` binds ``numpy``; ``monotonic`` and ``time``
    # here come from project modules, not from the clock.
    source = (
        "import numpy.random\n"
        "from clock import monotonic\n"
        "from util import time\n\n\n"
        "class Simulation:\n"
        "    def run(self, items):\n"
        "        return numpy.zeros(3), monotonic(), time()\n"
    )
    r104 = by_rule(lint_sources({"src/repro/sim/engine.py": source}), "R104")
    assert r104 == []


def test_r104_allows_draws_from_a_derived_generator():
    # The sanctioned pattern: a generator from rng_for, drawn from
    # through its methods (``rng.random``), is not a sink.
    engine = (
        "from util import rng_for\n\n\n"
        "class Simulation:\n"
        "    def run(self, seed, items):\n"
        "        rng = rng_for(seed, 'engine')\n"
        "        rng.shuffle(items)\n"
        "        return rng.random() + rng.integers(4)\n"
    )
    util = (
        "import numpy as np\n\n\n"
        "def rng_for(seed, *key):\n"
        "    return np.random.default_rng(seed)\n"
    )
    findings = lint_sources(
        {"src/repro/sim/engine.py": engine, "src/repro/util.py": util}
    )
    assert by_rule(findings, "R104") == []


# ----------------------------------------------------------------------
# The shipped tree itself
# ----------------------------------------------------------------------
def test_shipped_tree_deep_lints_clean_within_budget():
    t0 = time.perf_counter()
    findings = lint_tree([PACKAGE])
    elapsed = time.perf_counter() - t0
    assert findings == [], format_findings(findings)
    # Acceptance bound: single-process analysis of src/ < 10s.
    assert elapsed < 10.0, f"lint took {elapsed:.2f}s"


def test_deep_rule_ids_are_stable():
    # Suppression comments name rules by id, so the rules that remain
    # after R002, R003, R005, R102, R103, R105-R109 and R111 left keep
    # theirs, each with a rationale for --explain.
    from repro.analysis.rules import ALL_RULES, RULE_RATIONALE

    ids = [rule.rule_id for rule in ALL_RULES]
    assert ids == ["R004", "R101", "R104", "R110", "R112", "R113"]
    assert sorted(RULE_RATIONALE) == ids


def test_shipped_profiler_and_invariants_are_verified_neutral():
    # The R101 registries actually cover the measurement modules: every
    # function in sim/profile.py and analysis/invariants.py is analyzed
    # and passes the purity predicate (the clean lint above is not
    # vacuous).
    from repro.analysis.callgraph import Project
    from repro.analysis.rules import ResultNeutralPurity, _covers

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
    from repro.analysis.rules import ReachableNondeterminism

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
    "R004-host-reads-any-error-as-oom": (
        "R004",
        "sim/host.py",
        [("            except AllocationError:\n", "            except Exception:\n")],
        "except Exception neither re-raises nor logs",
    ),
    "R004-executor-skips-a-raising-handler": (
        "R004",
        "sim/engine.py",
        [(
            "        return handler(self, sim, decision, summary)\n",
            "        try:\n"
            "            return handler(self, sim, decision, summary)\n"
            "        except Exception:\n"
            "            return Outcome(False, reason=\"failed\")\n",
        )],
        "except Exception neither re-raises nor logs",
    ),
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
    "R104-poisson-arrivals-seed-numpy": (
        "R104",
        "scenarios/builtins.py",
        [
            (
                "from typing import Dict, List\n",
                "from typing import Dict, List\n\nimport numpy as np\n",
            ),
            (
                'self._rng = rng_for(scenario.seed, "scenario", "arrivals")',
                "self._rng = np.random.default_rng(scenario.seed)",
            ),
        ],
        "np.random.default_rng() reachable from sim entry point via "
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
    from repro.analysis.rules import ALL_RULES

    rule, relpath, edits, named = PINNED_MUTANTS[mutant]
    rules = [r() for r in ALL_RULES if r.rule_id == rule]
    findings = lint_sources(mutated_tree(relpath, edits), rules)
    assert any(named in f.message for f in findings), (
        f"{rule} missed its pinned mutant {mutant}:\n"
        + format_findings(findings)
    )


def test_profiler_clock_reads_are_silenced_only_by_their_r104_comments():
    # R104 reaches the profiler's three timer reads from the engine, and
    # only their ``# lint: ignore[R104]`` comments keep the shipped tree
    # clean: a comment that names another rule silences none of them.
    from repro.analysis.rules import ReachableNondeterminism

    sources = dict(shipped_sources())
    key = "src/repro/sim/profile.py"
    marker = "# lint: ignore[R104]"
    marked = [
        lineno
        for lineno, line in enumerate(sources[key].splitlines(), start=1)
        if line.endswith(marker)
    ]
    assert len(marked) == 3
    sources[key] = sources[key].replace(marker, "# lint: ignore[R101]")
    findings = lint_sources(sources, [ReachableNondeterminism()])
    assert [(f.path, f.line) for f in findings] == [(key, n) for n in marked]
    assert all(f.message.startswith("time.perf_counter()") for f in findings)
