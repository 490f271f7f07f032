"""Executor whose split handler does work it never accounts (R112)."""

from typing import Callable, ClassVar, Dict, Tuple, Type

from .decisions import ConfusedDecision, Decision, MigratePage, SplitPage


class Outcome:
    def __init__(self, applied):
        self.applied = applied


class BrokenExecutor:
    def __init__(self, sim):
        self.sim = sim

    def _apply_migrate_page(self, decision, summary):
        summary.bytes_migrated += 4096
        return Outcome(True)

    def _apply_split_page(self, decision, summary):
        # R112: SplitPage.counters declares splits_2m, never touched.
        self.sim.asp.split(decision.page_id)
        return Outcome(True)

    def _apply_confused(self, decision, summary):
        return Outcome(True)

    HANDLERS: ClassVar[Dict[Type[Decision], Callable]] = {
        MigratePage: _apply_migrate_page,
        SplitPage: _apply_split_page,
        ConfusedDecision: _apply_confused,
    }

    CONFLICT_DOMAINS: ClassVar[Tuple[str, ...]] = ("page",)

    def _execute(self, decision, summary):
        handler = self.HANDLERS[type(decision)]
        return handler(self, decision, summary)
