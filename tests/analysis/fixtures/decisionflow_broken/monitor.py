"""A measurement hook that writes simulation state (R101).

The module registers itself as result-neutral, so every function in it
must be observation-only; ``after_epoch`` resets a simulation counter.
"""

_RESULT_NEUTRAL = ("monitor",)


class EpochMonitor:
    def __init__(self):
        self.epochs = 0

    def after_epoch(self, sim):
        self.epochs += 1
        sim.stats.moves = 0  # R101: measurement code writes sim state
