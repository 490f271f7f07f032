"""A decider that reaches around the executor (R110).

``ImpurePolicy.decide`` mutates simulation state directly instead of
yielding a decision, through a one-call helper so only the
interprocedural write-effect analysis can see it.
"""

from .decisions import MigratePage, SplitPage


class PlacementPolicy:
    name = "base"

    def decide(self, sim, samples, window):
        yield MigratePage(0, 1)


class ImpurePolicy(PlacementPolicy):
    name = "impure"

    def decide(self, sim, samples, window):
        self._bump(sim)  # R110: writes sim.stats.moves
        yield SplitPage(0)

    def _bump(self, sim):
        sim.stats.moves = sim.stats.moves + 1
