"""Unit tests for the decision kernel: executor, conflicts, composition."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hardware.counters import CounterBank
from repro.hardware.ibs import IbsSamples
from repro.sim.decisions import (
    ChargeCompute,
    MergeSummary,
    MigratePages,
    Note,
    Outcome,
    ReclaimPages,
    ReplicatePageTables,
    Split2M,
    ToggleThpAlloc,
)
from repro.sim.engine import ActionExecutor, PageTableState, apply_decisions
from repro.sim.policy import PlacementPolicy, PolicyActionSummary, PolicyStack
from repro.vm.address_space import AddressSpace, BACKING_ID_2M_OFFSET
from repro.vm.frame_allocator import PhysicalMemory
from repro.vm.layout import GRANULES_PER_2M, PAGE_2M, PAGE_4K
from repro.vm.thp import ThpState

GIB = 1 << 30


def make_host(n_chunks=4, n_nodes=2, huge=True):
    """A minimal simulation stand-in the executor can mutate."""
    phys = PhysicalMemory([GIB] * n_nodes)
    asp = AddressSpace(n_chunks * GRANULES_PER_2M, phys)
    if huge:
        asp.premap_pattern_2m(0, np.zeros(n_chunks, dtype=np.int8))
    return SimpleNamespace(
        asp=asp,
        thp=ThpState(),
        page_tables=PageTableState(),
        machine=SimpleNamespace(n_nodes=n_nodes),
    )


def migrate(*pairs, budget=1 << 40):
    """One MigratePages batch of ``(page_id, target_node)`` pairs."""
    ids, nodes = zip(*pairs)
    return MigratePages(
        np.array(ids, dtype=np.int64), np.array(nodes, dtype=np.int64), budget
    )


def gen_of(*decisions):
    """A decider generator yielding a fixed decision sequence."""

    def _gen():
        for decision in decisions:
            yield decision

    return _gen()


class FakeDecider(PlacementPolicy):
    """Scripted decider: yields its decisions, records the outcomes."""

    def __init__(self, name, decisions):
        self.name = name
        self.decisions = decisions
        self.outcomes = []

    def decide(self, sim, samples, window):
        for decision in self.decisions:
            outcome = yield decision
            self.outcomes.append(outcome)


def run_stack(host, *deciders):
    stack = PolicyStack(deciders)
    executor = ActionExecutor(host)
    summary = executor.run_interval(
        stack, IbsSamples.empty(), CounterBank(host.machine.n_nodes, 4)
    )
    return executor, summary


class TestExecutorApply:
    def test_charge_compute_accumulates(self):
        host = make_host()
        summary, _ = apply_decisions(
            host, gen_of(ChargeCompute(0.25), ChargeCompute(0.5))
        )
        assert summary.compute_s == pytest.approx(0.75)

    def test_migrate_page_applied(self):
        host = make_host()
        summary, _ = apply_decisions(
            host, gen_of(migrate((BACKING_ID_2M_OFFSET, 1)))
        )
        assert summary.migrated_2m == 1
        assert summary.bytes_migrated == PAGE_2M
        assert host.asp.node_of_backing(BACKING_ID_2M_OFFSET) == 1

    def test_migrate_noop_not_applied(self):
        host = make_host()
        executor = ActionExecutor(host)
        summary = PolicyActionSummary()
        # Already on node 0: nothing moves, decision is a skip.
        executor.drive(
            gen_of(migrate((BACKING_ID_2M_OFFSET, 0))), summary
        )
        assert executor.decisions_skipped == 1
        assert summary.bytes_migrated == 0

    def test_split_counts(self):
        host = make_host()
        summary, _ = apply_decisions(
            host, gen_of(Split2M(BACKING_ID_2M_OFFSET))
        )
        assert summary.splits_2m == 1
        assert not host.asp.huge[0]

    def test_thp_toggle(self):
        host = make_host()
        host.thp.enable_alloc()
        apply_decisions(host, gen_of(ToggleThpAlloc(False)))
        assert not host.thp.alloc_enabled

    def test_replicate_page_tables_once(self):
        host = make_host()
        host.page_tables.numa_enabled = True
        executor = ActionExecutor(host)
        summary = PolicyActionSummary()
        executor.drive(
            gen_of(ReplicatePageTables(), ReplicatePageTables()), summary
        )
        assert host.page_tables.replicated
        # n_nodes - 1 = 1 replica of the live page-table bytes.
        assert summary.bytes_replicated == host.asp.page_table_bytes()
        assert summary.replicated_pages == summary.bytes_replicated // PAGE_4K
        assert executor.decisions_applied == 1
        assert executor.decisions_skipped == 1

    def test_outcome_feedback_reaches_decider(self):
        host = make_host()
        decider = FakeDecider(
            "fb",
            [
                migrate((BACKING_ID_2M_OFFSET, 1)),  # moves
                migrate((BACKING_ID_2M_OFFSET, 1)),  # already there
            ],
        )
        executor = ActionExecutor(host)
        executor.drive(
            decider.decide(host, IbsSamples.empty(), None),
            PolicyActionSummary(),
        )
        first, second = decider.outcomes
        assert first.applied and first.bytes_moved == PAGE_2M
        assert not second.applied

    def test_conservation_counters(self):
        host = make_host()
        executor = ActionExecutor(host)
        summary = PolicyActionSummary()
        executor.drive(
            gen_of(
                ChargeCompute(0.1),
                migrate((BACKING_ID_2M_OFFSET, 1)),
                migrate((BACKING_ID_2M_OFFSET, 1)),  # no-op: skip
            ),
            summary,
        )
        assert executor.decisions_seen == 3
        assert (
            executor.decisions_seen
            == executor.decisions_applied + executor.decisions_skipped
        )


class TestReclaimPages:
    def make_4k_host(self, n_granules=64):
        """A host whose first granules are plain 4KB mappings."""
        host = make_host(huge=False)
        host.asp.fault_in(
            np.arange(n_granules), node=0, thp_alloc=False
        )
        return host

    def test_reclaim_applied_with_exact_counters(self):
        host = self.make_4k_host()
        summary, _ = apply_decisions(
            host, gen_of(ReclaimPages(np.arange(16)))
        )
        assert summary.pages_reclaimed == 16
        assert summary.bytes_reclaimed == 16 * PAGE_4K
        assert np.all(host.asp.home_nodes(np.arange(16)) == -1)
        host.asp.check_invariants()

    def test_outcome_reports_bytes_and_count(self):
        host = self.make_4k_host()
        decider = FakeDecider("r", [ReclaimPages(np.arange(8))])
        ActionExecutor(host).drive(
            decider.decide(host, IbsSamples.empty(), None),
            PolicyActionSummary(),
        )
        (outcome,) = decider.outcomes
        assert outcome.applied
        assert outcome.bytes_moved == 8 * PAGE_4K
        assert outcome.count == 8

    def test_nothing_eligible_is_a_skip(self):
        host = make_host(huge=True)  # everything huge-backed
        executor = ActionExecutor(host)
        summary = PolicyActionSummary()
        executor.drive(gen_of(ReclaimPages(np.arange(4))), summary)
        assert executor.decisions_skipped == 1
        assert summary.pages_reclaimed == 0

    def test_page_id_claims_conflict_domain(self):
        host = self.make_4k_host()
        a = FakeDecider("a", [ReclaimPages(np.arange(4), page_id=0)])
        b = FakeDecider("b", [migrate((0, 1))])
        run_stack(host, a, b)
        assert a.outcomes[0].applied
        assert b.outcomes[0].reason == "conflict"

    def test_without_page_id_no_claim(self):
        host = self.make_4k_host()
        a = FakeDecider("a", [ReclaimPages(np.arange(4))])
        b = FakeDecider(
            "b", [ReclaimPages(np.arange(8, 12))]
        )
        run_stack(host, a, b)
        assert a.outcomes[0].applied and b.outcomes[0].applied


class TestConflictResolution:
    def test_first_decider_wins_page(self):
        host = make_host()
        a = FakeDecider("a", [migrate((BACKING_ID_2M_OFFSET, 1))])
        b = FakeDecider("b", [migrate((BACKING_ID_2M_OFFSET, 0))])
        run_stack(host, a, b)
        # b's migration back to node 0 was skipped as a conflict.
        assert host.asp.node_of_backing(BACKING_ID_2M_OFFSET) == 1
        assert b.outcomes[0].reason == "conflict"

    def test_same_decider_may_touch_target_twice(self):
        host = make_host()
        a = FakeDecider(
            "a",
            [
                migrate((BACKING_ID_2M_OFFSET, 1)),
                migrate((BACKING_ID_2M_OFFSET, 0)),
            ],
        )
        b = FakeDecider("b", [ChargeCompute(0.0)])
        run_stack(host, a, b)
        assert a.outcomes[0].applied and a.outcomes[1].applied
        assert host.asp.node_of_backing(BACKING_ID_2M_OFFSET) == 0

    def test_unapplied_decision_does_not_claim(self):
        host = make_host()
        # a's migrate is a no-op (page already local) so it must not
        # claim the page against b.
        a = FakeDecider("a", [migrate((BACKING_ID_2M_OFFSET, 0))])
        b = FakeDecider("b", [migrate((BACKING_ID_2M_OFFSET, 1))])
        run_stack(host, a, b)
        assert not a.outcomes[0].applied
        assert b.outcomes[0].applied
        assert host.asp.node_of_backing(BACKING_ID_2M_OFFSET) == 1

    def test_thp_toggle_is_a_shared_target(self):
        host = make_host()
        a = FakeDecider("a", [ToggleThpAlloc(False)])
        b = FakeDecider("b", [ToggleThpAlloc(True)])
        run_stack(host, a, b)
        assert not host.thp.alloc_enabled
        assert b.outcomes[0].reason == "conflict"

    def test_distinct_pages_no_conflict(self):
        host = make_host()
        a = FakeDecider("a", [migrate((BACKING_ID_2M_OFFSET, 1))])
        b = FakeDecider("b", [migrate((BACKING_ID_2M_OFFSET + 1, 1))])
        run_stack(host, a, b)
        assert a.outcomes[0].applied and b.outcomes[0].applied

    def test_single_decider_never_conflicts_with_itself(self):
        host = make_host()
        a = FakeDecider(
            "a",
            [
                migrate((BACKING_ID_2M_OFFSET, 1)),
                migrate((BACKING_ID_2M_OFFSET, 0)),
            ],
        )
        executor = ActionExecutor(host)
        executor.run_interval(
            a, IbsSamples.empty(), CounterBank(host.machine.n_nodes, 4)
        )
        assert executor.decisions_skipped == 0


class TestBatchClaims:
    """A batch claims and yields page by page inside a stack."""

    def test_batch_skips_only_the_claimed_entries(self):
        host = make_host()
        a = FakeDecider("a", [migrate((BACKING_ID_2M_OFFSET, 1))])
        b = FakeDecider(
            "b",
            [migrate((BACKING_ID_2M_OFFSET, 0), (BACKING_ID_2M_OFFSET + 1, 1))],
        )
        run_stack(host, a, b)
        (outcome,) = b.outcomes
        assert outcome.applied
        assert outcome.entry_bytes.tolist() == [0, PAGE_2M]
        assert host.asp.node_of_backing(BACKING_ID_2M_OFFSET) == 1
        assert host.asp.node_of_backing(BACKING_ID_2M_OFFSET + 1) == 1

    def test_batch_claims_only_the_pages_it_moved(self):
        host = make_host()
        # Chunk 0 is already on node 0, so a's batch moves only chunk 1.
        a = FakeDecider(
            "a",
            [migrate((BACKING_ID_2M_OFFSET, 0), (BACKING_ID_2M_OFFSET + 1, 1))],
        )
        b = FakeDecider(
            "b",
            [
                migrate((BACKING_ID_2M_OFFSET, 1)),
                migrate((BACKING_ID_2M_OFFSET + 1, 0)),
                Split2M(BACKING_ID_2M_OFFSET + 1),
            ],
        )
        run_stack(host, a, b)
        assert b.outcomes[0].applied
        assert b.outcomes[1].reason == "conflict"
        assert b.outcomes[2].reason == "conflict"
        assert host.asp.node_of_backing(BACKING_ID_2M_OFFSET) == 1
        assert host.asp.node_of_backing(BACKING_ID_2M_OFFSET + 1) == 1

    def test_targets_built_only_inside_a_stack(self, monkeypatch):
        built = []
        targets = MigratePages.targets

        def spy(self):
            built.append(self)
            return targets(self)

        monkeypatch.setattr(MigratePages, "targets", spy)
        host = make_host()
        apply_decisions(host, gen_of(migrate((BACKING_ID_2M_OFFSET, 1))))
        assert built == []
        run_stack(
            host,
            FakeDecider("a", [migrate((BACKING_ID_2M_OFFSET, 0))]),
            FakeDecider("b", []),
        )
        assert len(built) == 1

    def test_budget_cut_reported_in_the_outcome(self):
        host = make_host()
        decider = FakeDecider(
            "d",
            [
                migrate(
                    *((BACKING_ID_2M_OFFSET + chunk, 1) for chunk in range(4)),
                    budget=PAGE_2M + 1,
                )
            ],
        )
        summary = PolicyActionSummary()
        ActionExecutor(host).drive(
            decider.decide(host, IbsSamples.empty(), None), summary
        )
        (outcome,) = decider.outcomes
        assert outcome.reached == 2 and outcome.count == 2
        assert outcome.bytes_moved == 2 * PAGE_2M == summary.bytes_migrated
        assert summary.migrated_2m == 2


class TestNotesCap:
    def test_add_note_caps_and_counts(self):
        summary = PolicyActionSummary()
        for i in range(PolicyActionSummary.MAX_NOTES + 5):
            summary.add_note(f"note {i}")
        assert len(summary.notes) == PolicyActionSummary.MAX_NOTES
        assert summary.notes_dropped == 5

    def test_merge_below_cap_keeps_all(self):
        a = PolicyActionSummary(notes=["x"])
        b = PolicyActionSummary(notes=["y", "z"])
        a.merge(b)
        assert a.notes == ["x", "y", "z"]
        assert a.notes_dropped == 0

    def test_merge_past_cap_counts_drops(self):
        a = PolicyActionSummary()
        a.notes = [f"a{i}" for i in range(PolicyActionSummary.MAX_NOTES - 1)]
        b = PolicyActionSummary(notes=["b0", "b1", "b2"])
        a.merge(b)
        assert len(a.notes) == PolicyActionSummary.MAX_NOTES
        assert a.notes[-1] == "b0"
        assert a.notes_dropped == 2

    def test_executor_note_cap(self):
        host = make_host()
        notes = [Note(f"n{i}") for i in range(PolicyActionSummary.MAX_NOTES + 3)]
        summary, _ = apply_decisions(host, gen_of(*notes))
        assert len(summary.notes) == PolicyActionSummary.MAX_NOTES
        assert summary.notes_dropped == 3


class TestLegacyBridge:
    def test_on_interval_subclass_still_works(self):
        class Legacy(PlacementPolicy):
            name = "legacy"

            def on_interval(self, sim, samples, window):
                summary = PolicyActionSummary()
                summary.compute_s = 0.125
                summary.add_note("legacy ran")
                return summary

        host = make_host()
        summary, _ = apply_decisions(
            host, Legacy().decide(host, IbsSamples.empty(), None)
        )
        assert summary.compute_s == 0.125
        assert summary.notes == ["legacy ran"]

    def test_merge_summary_decision(self):
        host = make_host()
        inner = PolicyActionSummary()
        inner.migrated_2m = 7
        summary, _ = apply_decisions(host, gen_of(MergeSummary(inner)))
        assert summary.migrated_2m == 7


class TestPolicyStack:
    def test_empty_stack_rejected(self):
        with pytest.raises(ConfigurationError):
            PolicyStack([])

    def test_name_joins_members(self):
        a = FakeDecider("a", [])
        b = FakeDecider("b", [])
        assert PolicyStack([a, b]).name == "a+b"
        assert PolicyStack([a, b], name="custom").name == "custom"

    def test_interval_is_min_of_members(self):
        a = FakeDecider("a", [])
        b = FakeDecider("b", [])
        a.interval_s = 2.0
        b.interval_s = 0.5
        assert PolicyStack([a, b]).interval_s == 0.5

    def test_daemonless_member_ignored_for_interval(self):
        a = FakeDecider("a", [])
        a.interval_s = None
        b = FakeDecider("b", [])
        b.interval_s = 3.0
        assert PolicyStack([a, b]).interval_s == 3.0
        assert PolicyStack([a], name="a").interval_s is None

    def test_deciders_flatten_nested_stacks(self):
        a = FakeDecider("a", [])
        b = FakeDecider("b", [])
        c = FakeDecider("c", [])
        outer = PolicyStack([PolicyStack([a, b]), c])
        assert outer.deciders() == (a, b, c)

    def test_outcome_none_fields_default(self):
        outcome = Outcome(applied=True)
        assert outcome.bytes_moved == 0
        assert outcome.count == 0
        assert outcome.reason == ""


class TestDecisionMetadata:
    """The class-level contracts the R109-R113 lint rules verify."""

    def all_decision_classes(self):
        import repro.sim.decisions as mod
        from repro.sim.decisions import Decision

        return [
            obj
            for obj in vars(mod).values()
            if isinstance(obj, type)
            and issubclass(obj, Decision)
            and obj is not Decision
        ]

    def test_every_decision_declares_domain_and_counters(self):
        from repro.sim.decisions import CONFLICT_DOMAIN_NAMES

        for cls in self.all_decision_classes():
            assert cls.domain in CONFLICT_DOMAIN_NAMES, cls.__name__
            assert isinstance(cls.counters, tuple), cls.__name__
            summary_fields = set(vars(PolicyActionSummary()).keys())
            for counter in cls.counters:
                assert counter in summary_fields, (
                    f"{cls.__name__}.counters names unknown summary "
                    f"field {counter!r}"
                )

    def test_mutating_domains_match_targets(self):
        # A decision claiming page/pt targets must declare that domain,
        # or the executor's conflict arbitration would miss it.
        from repro.sim.decisions import ReplicatePageTables

        assert MigratePages.domain == "page"
        assert migrate((0, 1), (5, 0)).targets() == (("page", 0), ("page", 5))
        assert ReplicatePageTables.domain == "pt"

    def test_handler_table_covers_every_decision(self):
        handled = set(ActionExecutor.HANDLERS)
        assert handled == set(self.all_decision_classes())
        for method in ActionExecutor.HANDLERS.values():
            assert method.__name__.startswith("_apply_")
            assert hasattr(ActionExecutor, method.__name__)

    def test_metadata_does_not_change_frozen_semantics(self):
        decision = migrate((3, 1))
        with pytest.raises(Exception):
            decision.budget_bytes = 4  # still a frozen dataclass
        # ClassVar metadata stays off the instance fields.
        assert "domain" not in vars(decision)
        assert "counters" not in vars(decision)

    def test_unknown_decision_type_is_an_error(self):
        from dataclasses import dataclass

        from repro.errors import SimulationError
        from repro.sim.decisions import Decision

        @dataclass(frozen=True)
        class Rogue(Decision):
            pass

        host = make_host()
        executor = ActionExecutor(host)
        with pytest.raises(SimulationError, match="unknown decision type"):
            executor.drive(gen_of(Rogue()), PolicyActionSummary())
