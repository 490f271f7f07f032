"""Fixture tests for the decision-kernel rules R109-R113.

Each rule gets at least two seeded violations, one suppressed case and
one negative case, per the linter's fixture-test convention.  The final
tests run the rules over the shipped tree: the policy kernel must prove
clean (every policy in ``POLICIES`` pure under R110) inside the 3s
acceptance budget.
"""

from __future__ import annotations

import pathlib
import time

import repro
from repro.analysis.callgraph import Project
from repro.analysis.decisionflow import decision_flow_model
from repro.analysis.deep import deep_lint_sources
from repro.analysis.linter import format_findings

PACKAGE = pathlib.Path(repro.__file__).parent


def by_rule(findings, rule):
    return [f for f in findings if f.rule == rule]


# ----------------------------------------------------------------------
# R109: handler exhaustiveness
# ----------------------------------------------------------------------
R109_SRC = """\
class Decision:
    domain = "none"


class MigratePage(Decision):
    domain = "page"
    counters = ("bytes_migrated",)

    def targets(self):
        return (("page", self.page_id),)


class MigrateThread(Decision):
    domain = "page"

    def targets(self):
        return (("page", self.tid),)


class Collapse2M(Decision):
    domain = "page"
    counters = ("collapses_2m",)

    def targets(self):
        return (("page", self.chunk),)


class Phantom(Decision):  # lint: ignore[R109]
    domain = "page"

    def targets(self):
        return (("page", self.x),)


class Frame:
    pass


class ActionExecutor:
    def _apply_migrate_page(self, decision, summary):
        summary.bytes_migrated += 8
        return None

    def _apply_stale(self, decision, summary):
        return None

    def _apply_orphan(self, decision, summary):
        return None

    HANDLERS = {MigratePage: _apply_migrate_page, Frame: _apply_stale}
    CONFLICT_DOMAINS = ("page",)
"""


def r109_findings():
    return deep_lint_sources({"src/sim/kernel.py": R109_SRC})


def test_r109_flags_decisions_without_handlers():
    r109 = by_rule(r109_findings(), "R109")
    messages = "\n".join(f.message for f in r109)
    assert "MigrateThread has no executor handler" in messages
    assert "Collapse2M has no executor handler" in messages


def test_r109_flags_foreign_keys_and_dead_handlers():
    r109 = by_rule(r109_findings(), "R109")
    messages = "\n".join(f.message for f in r109)
    # Frame is in HANDLERS but is not a Decision subclass.
    assert "'Frame' is not a Decision subclass" in messages
    # _apply_orphan exists but nothing dispatches to it.
    assert "dead handler" in messages
    assert "_apply_orphan" in messages
    # _apply_stale is referenced (by the Frame entry, itself flagged):
    # one finding per defect, no double-reporting.
    assert "_apply_stale" not in messages


def test_r109_suppression_and_negative():
    r109 = by_rule(r109_findings(), "R109")
    messages = "\n".join(f.message for f in r109)
    assert "Phantom" not in messages  # class line carries the ignore
    assert "MigratePage has no executor handler" not in messages


def test_r109_silent_without_an_executor():
    source = R109_SRC.split("class Frame:")[0]
    findings = deep_lint_sources({"src/sim/kernel.py": source})
    assert by_rule(findings, "R109") == []


# ----------------------------------------------------------------------
# R110: interprocedural decider purity
# ----------------------------------------------------------------------
R110_SRC = """\
class PlacementPolicy:
    def decide(self, sim, samples, window):
        return iter(())


class EagerPolicy(PlacementPolicy):
    def decide(self, sim, samples, window):
        rebalance(sim)
        return iter(())


def rebalance(sim):
    push_home(sim.address_space)


def push_home(asp):
    asp.node4k = 0


class SneakyPolicy(PlacementPolicy):
    def decide(self, sim, samples, window):
        sim.tracker.counts = {}
        return iter(())


class MemoPolicy(PlacementPolicy):
    def decide(self, sim, samples, window):
        sim.asp._home_map = None
        return iter(())


class HushedPolicy(PlacementPolicy):
    def decide(self, sim, samples, window):  # lint: ignore[R110]
        sim.epoch = 3
        return iter(())
"""


def r110_findings():
    return deep_lint_sources({"src/core/mut.py": R110_SRC})


def test_r110_proves_mutation_through_a_two_call_chain():
    r110 = by_rule(r110_findings(), "R110")
    eager = [f for f in r110 if "EagerPolicy" in f.message]
    assert len(eager) == 1, format_findings(r110)
    assert "sim.address_space.node4k" in eager[0].message
    # The full decide -> rebalance -> push_home chain is spelled out.
    assert "rebalance" in eager[0].message
    assert "push_home" in eager[0].message
    assert eager[0].chain[-1] == "mut.push_home"


def test_r110_flags_direct_decider_writes():
    r110 = by_rule(r110_findings(), "R110")
    messages = "\n".join(f.message for f in r110)
    assert "SneakyPolicy" in messages
    assert "sim.tracker.counts" in messages


def test_r110_sanctions_private_memo_paths():
    messages = "\n".join(f.message for f in r110_findings())
    assert "MemoPolicy" not in messages  # _home_map is a private memo


def test_r110_suppression_comment_respected():
    messages = "\n".join(f.message for f in r110_findings())
    assert "HushedPolicy" not in messages


# ----------------------------------------------------------------------
# R111: generator-protocol misuse
# ----------------------------------------------------------------------
R111_SRC = """\
class Decision:
    domain = "none"


class MigratePage(Decision):
    domain = "page"

    def targets(self):
        return (("page", self.page_id),)


class Stats:
    pass


class PlacementPolicy:
    def decide(self, sim, samples, window):
        yield MigratePage(0)


class ChattyPolicy(PlacementPolicy):
    def decide(self, sim, samples, window):
        yield {"kind": "migrate"}
        yield Stats()
        return 7


class BudgetPolicy(PlacementPolicy):
    def decide(self, sim, samples, window):
        budget = 4096
        for page in sim.hot_pages:
            if budget <= 0:
                break
            yield MigratePage(page)
            budget -= 4096


class PatientPolicy(PlacementPolicy):
    def decide(self, sim, samples, window):
        budget = 4096
        for page in sim.hot_pages:
            if budget <= 0:
                break
            outcome = yield MigratePage(page)
            budget -= outcome.bytes_moved


class HushedPolicy(PlacementPolicy):
    def decide(self, sim, samples, window):
        yield 3  # lint: ignore[R111]
"""


def r111_findings():
    return deep_lint_sources({"src/core/gen.py": R111_SRC})


def test_r111_flags_non_decision_yields():
    r111 = by_rule(r111_findings(), "R111")
    messages = "\n".join(f.message for f in r111)
    assert "yields a container literal" in messages
    assert "yields a gen.Stats instance" in messages


def test_r111_flags_dropped_return_value():
    r111 = by_rule(r111_findings(), "R111")
    messages = "\n".join(f.message for f in r111)
    assert "run_interval silently drops" in messages


def test_r111_flags_discarded_outcome_in_budget_loop():
    r111 = by_rule(r111_findings(), "R111")
    budget = [f for f in r111 if "BudgetPolicy" in f.message]
    assert len(budget) == 1, format_findings(r111)
    assert "discards the Outcome" in budget[0].message
    assert "'budget'" in budget[0].message


def test_r111_accepts_bound_outcomes_and_suppression():
    messages = "\n".join(f.message for f in r111_findings())
    assert "PatientPolicy" not in messages  # outcome is bound
    assert "HushedPolicy" not in messages  # suppressed constant yield


# ----------------------------------------------------------------------
# R112: accounting completeness
# ----------------------------------------------------------------------
R112_SRC = """\
_ACTION_FIELDS = ("bytes_migrated", "splits_2m", "replicated_pages")


class PolicyActionSummary:
    bytes_migrated: int = 0
    splits_2m: int = 0
    collapses_2m: int = 0
    replicated_pages: int = 0


class Decision:
    domain = "none"


class MigratePage(Decision):
    domain = "page"
    counters = ("bytes_migrated",)

    def targets(self):
        return (("page", self.page_id),)


class Split2M(Decision):
    domain = "page"
    counters = ("splits_2m",)

    def targets(self):
        return (("page", self.page_id),)


class Collapse2M(Decision):
    domain = "page"
    counters = ("collapses_2m", "ghost_field")

    def targets(self):
        return (("page", self.chunk),)


class PurgePage(Decision):
    domain = "page"

    def targets(self):
        return (("page", self.page_id),)


class ReplicatePage(Decision):
    domain = "page"
    counters = ("replicated_pages",)

    def targets(self):
        return (("page", self.page_id),)


class ActionExecutor:
    def _apply_migrate_page(self, decision, summary):
        summary.bytes_migrated += 8
        summary.collapses_2m += 1
        return None

    def _apply_split_2m(self, decision, summary):
        return None

    def _apply_collapse_2m(self, decision, summary):
        summary.collapses_2m += 1
        return None

    def _apply_purge_page(self, decision, summary):
        self.sim.asp.node4k = 0
        return None

    def _apply_replicate_page(self, decision, summary):  # lint: ignore[R112]
        summary.replicated_pages += 1
        summary.bytes_migrated += 8
        return None

    HANDLERS = {
        MigratePage: _apply_migrate_page,
        Split2M: _apply_split_2m,
        Collapse2M: _apply_collapse_2m,
        PurgePage: _apply_purge_page,
        ReplicatePage: _apply_replicate_page,
    }
    CONFLICT_DOMAINS = ("page",)
"""


def r112_findings():
    return deep_lint_sources({"src/sim/acct.py": R112_SRC})


def test_r112_flags_undeclared_counter_touch():
    r112 = by_rule(r112_findings(), "R112")
    messages = "\n".join(f.message for f in r112)
    assert (
        "touches summary.collapses_2m, which MigratePage.counters does "
        "not declare" in messages
    )


def test_r112_flags_declared_but_untouched_counter():
    r112 = by_rule(r112_findings(), "R112")
    messages = "\n".join(f.message for f in r112)
    assert "'splits_2m'" in messages
    assert "never touches it" in messages


def test_r112_flags_unknown_counter_and_unaccounted_mutation():
    r112 = by_rule(r112_findings(), "R112")
    messages = "\n".join(f.message for f in r112)
    # ghost_field is not a PolicyActionSummary field.
    assert "'ghost_field'" in messages
    assert "not a PolicyActionSummary field" in messages
    # PurgePage mutates backing state with no counter at all.
    assert "_apply_purge_page" in messages
    assert "accounts no summary counter" in messages


def test_r112_suppression_and_negative():
    r112 = by_rule(r112_findings(), "R112")
    messages = "\n".join(f.message for f in r112)
    # The replicate handler's undeclared bytes_migrated touch carries an
    # ignore comment on its def line.
    assert "_apply_replicate_page" not in messages
    # A declared-and-touched counter is silent.
    assert (
        "touches summary.bytes_migrated, which MigratePage.counters"
        not in messages
    )


def test_r112_conservation_coverage():
    # Every _ACTION_FIELDS entry is declared by some decision here, so
    # no conservation finding fires...
    messages = "\n".join(f.message for f in r112_findings())
    assert "reconciled by the invariant checker" not in messages
    # ...but dropping the ReplicatePage declaration leaves
    # replicated_pages unclaimed.
    source = R112_SRC.replace(
        'counters = ("replicated_pages",)', "counters = ()"
    )
    findings = deep_lint_sources({"src/sim/acct.py": source})
    messages = "\n".join(f.message for f in by_rule(findings, "R112"))
    assert "'replicated_pages'" in messages
    assert "reconciled by the invariant checker" in messages


# ----------------------------------------------------------------------
# R113: conflict-domain declarations
# ----------------------------------------------------------------------
R113_SRC = """\
class Decision:
    domain = "none"


class MigratePage(Decision):
    domain = "page"

    def targets(self):
        return (("page", self.page_id),)


class UndeclaredDecision(Decision):
    def targets(self):
        return (("page", self.page_id),)


class ConfusedDecision(Decision):
    domain = "thp"

    def targets(self):
        return (("page", self.page_id),)


class BodilessDecision(Decision):
    domain = "pt"


class WeirdDecision(Decision):
    domain = "disk"


class SilentDecision(Decision):
    domain = "none"


class HushedDecision(Decision):  # lint: ignore[R113]
    def targets(self):
        return (("page", self.x),)


class ActionExecutor:
    def _apply_migrate_page(self, decision, summary):
        return None

    HANDLERS = {MigratePage: _apply_migrate_page}
    CONFLICT_DOMAINS = ("page", "thp")
"""


def r113_findings():
    return deep_lint_sources({"src/sim/dom.py": R113_SRC})


def test_r113_requires_an_explicit_domain():
    r113 = by_rule(r113_findings(), "R113")
    messages = "\n".join(f.message for f in r113)
    assert "UndeclaredDecision does not declare its conflict domain" in messages


def test_r113_checks_targets_against_the_domain():
    r113 = by_rule(r113_findings(), "R113")
    messages = "\n".join(f.message for f in r113)
    # Declared thp but targets() claims page keys.
    assert "ConfusedDecision declares domain 'thp'" in messages
    # Declared pt but targets() claims nothing.
    assert "BodilessDecision declares domain 'pt'" in messages
    assert "claims nothing" in messages
    # Invalid domain value.
    assert "WeirdDecision.domain is 'disk'" in messages


def test_r113_checks_executor_claim_coverage():
    r113 = by_rule(r113_findings(), "R113")
    messages = "\n".join(f.message for f in r113)
    assert "CONFLICT_DOMAINS" in messages
    assert "unclaimed-by-decisions thp" in messages


def test_r113_suppression_and_negative():
    r113 = by_rule(r113_findings(), "R113")
    messages = "\n".join(f.message for f in r113)
    assert "HushedDecision" not in messages
    assert "SilentDecision" not in messages
    assert "MigratePage declares" not in messages


R113_BATCH_SRC = """\
class Decision:
    domain = "none"


class MigratePages(Decision):
    domain = "page"

    def targets(self):
        return tuple(("page", page_id) for page_id in self.page_ids)


class ToggleMany(Decision):
    domain = "thp"

    def targets(self):
        return tuple(("page", name) for name in self.names)


class Mystery(Decision):
    domain = "pt"

    def targets(self):
        return tuple((kind, key) for kind, key in self.pairs)


class ActionExecutor:
    def _apply_migrate_pages(self, decision, summary):
        return None

    def _apply_toggle_many(self, decision, summary):
        return None

    def _apply_mystery(self, decision, summary):
        return None

    HANDLERS = {
        MigratePages: _apply_migrate_pages,
        ToggleMany: _apply_toggle_many,
        Mystery: _apply_mystery,
    }
    CONFLICT_DOMAINS = ("page", "thp", "pt")
"""


def r113_batch_findings():
    return deep_lint_sources({"src/sim/batch.py": R113_BATCH_SRC})


def test_r113_reads_comprehension_targets():
    # The batch form is parsed, not skipped as opaque: a comprehension
    # claiming the declared domain is clean...
    messages = "\n".join(
        f.message for f in by_rule(r113_batch_findings(), "R113")
    )
    assert "MigratePages" not in messages
    # ...and one claiming another domain's keys is flagged.
    assert "ToggleMany declares domain 'thp' but targets() claims page" in messages


def test_r113_comprehension_without_literal_kind_stays_opaque():
    messages = "\n".join(
        f.message for f in by_rule(r113_batch_findings(), "R113")
    )
    assert "Mystery" not in messages


# ----------------------------------------------------------------------
# The shipped tree: the kernel proves sound
# ----------------------------------------------------------------------
def shipped_model():
    project = Project.from_paths([PACKAGE])
    project.analyze()
    return decision_flow_model(project)


def test_shipped_kernel_model_is_complete():
    model = shipped_model()
    # All 14 concrete decision classes, one executor, full coverage.
    assert len(model.decisions) == 14
    assert len(model.executors) == 1
    executor = model.executors[0]
    assert set(executor.handlers) == set(model.decisions)
    assert executor.conflict_domains == ("page", "thp", "pt")
    # The batch decision's comprehension targets() is checked, not
    # skipped as opaque.
    batch = model.decisions["sim.decisions.MigratePages"]
    assert batch.target_kinds == ("page",)
    assert not batch.opaque_targets
    # The conserved-field map is parsed from analysis/invariants.py.
    assert "bytes_migrated" in model.action_fields


def test_shipped_policies_prove_pure_under_r110():
    from repro.analysis.decisionflow import check_purity
    from repro.experiments.configs import POLICIES

    model = shipped_model()
    assert check_purity(model) == []
    # Every registry policy's decide() is actually among the proof
    # roots (directly or via its class hierarchy) — the clean result is
    # not vacuous.
    root_classes = {q.split(".")[-2] for q in model.policy_roots}
    for name, factory in POLICIES.items():
        policy = factory(0)
        assert any(
            klass.__name__ in root_classes
            for klass in type(policy).__mro__
            if klass.__name__ != "object"
        ), f"policy {name} ({type(policy).__name__}) has no analyzed root"


def test_shipped_tree_decision_rules_clean_within_budget():
    from repro.analysis.deep import deep_lint_paths

    t0 = time.perf_counter()
    findings = deep_lint_paths([PACKAGE])
    elapsed = time.perf_counter() - t0
    decision_rules = [
        f for f in findings if f.rule in ("R109", "R110", "R111", "R112", "R113")
    ]
    assert decision_rules == [], format_findings(decision_rules)
    # ISSUE acceptance bound: R101-R113 over src/ in < 3 s.
    assert elapsed < 3.0, f"deep analysis took {elapsed:.2f}s"


def test_broken_fixture_package_fails_deep_lint():
    """The CI proof fixture really trips the rules it claims to trip.

    CI deep-lints ``fixtures/decisionflow_broken`` and requires a
    non-zero exit with R109 in the output; this test keeps the fixture
    honest so that step can never silently pass.
    """
    from repro.analysis.deep import deep_lint_paths

    fixture = pathlib.Path(__file__).parent / "fixtures" / "decisionflow_broken"
    findings = deep_lint_paths([fixture])
    rules = sorted({f.rule for f in findings})
    assert "R109" in rules, format_findings(findings)
    assert "R110" in rules, format_findings(findings)
    assert "R113" in rules, format_findings(findings)
    orphans = [f for f in findings if f.rule == "R109"]
    assert any("OrphanDecision" in f.message for f in orphans)
