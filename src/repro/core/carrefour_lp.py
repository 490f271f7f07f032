"""Carrefour-LP: Algorithm 1 of the paper.

The policy composes three pieces, run once per monitoring interval
(1 second of simulated time):

1. the **conservative** component re-enables 2MB allocation/promotion
   from hardware counters (lines 4-9);
2. the **reactive** component estimates what-if LARs from IBS samples,
   splits shared large pages and disables 2MB allocation when only
   splitting helps, and always splits + interleaves hot pages
   (lines 10-19);
3. the **Carrefour** engine migrates/interleaves pages at whatever
   granularity now exists (line 20).

The two evaluated ablations are expressed by flags: ``reactive-only``
(Carrefour-2M + reactive, starts with THP on) and ``conservative-only``
(original 4KB Carrefour + conservative, starts with THP off) — exactly
the configurations of Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List, Optional, TYPE_CHECKING

from repro.hardware.counters import CounterBank
from repro.hardware.ibs import IbsSamples
from repro.core.carrefour import CarrefourConfig, CarrefourEngine
from repro.core.conservative import (
    ConservativeComponent,
    ConservativeConfig,
    ConservativeDecision,
)
from repro.core.metrics import PageSampleTable
from repro.core.reactive import ReactiveComponent, ReactiveConfig, ReactiveDecision
from repro.sim.decisions import Decision, Note, Outcome
from repro.sim.policy import PlacementPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation


@dataclass
class LpIntervalLog:
    """Record of one Carrefour-LP interval (introspection for tests)."""

    time_s: float
    conservative: Optional[ConservativeDecision]
    reactive: Optional[ReactiveDecision]
    carrefour_engaged: bool


class CarrefourLpPolicy(PlacementPolicy):
    """Large-page extensions to Carrefour (Algorithm 1)."""

    interval_s = 1.0

    def __init__(
        self,
        conservative: bool = True,
        reactive: bool = True,
        carrefour_config: Optional[CarrefourConfig] = None,
        reactive_config: ReactiveConfig = ReactiveConfig(),
        conservative_config: ConservativeConfig = ConservativeConfig(),
        seed: int = 0,
        name: Optional[str] = None,
        lwp: bool = False,
    ) -> None:
        self.with_conservative = conservative
        self.with_reactive = reactive
        #: Lightweight Profiling (the paper's proposed fix, Section 4.1):
        #: LWP buffers samples in a ring and interrupts only when it is
        #: full, so many more samples can be collected per interval at a
        #: fraction of the per-sample cost.  Denser samples shrink the
        #: reactive component's LAR misestimation on sub-pages.
        self.lwp = lwp
        self.engine = CarrefourEngine(carrefour_config, seed=seed)
        self.conservative = (
            ConservativeComponent(conservative_config) if conservative else None
        )
        self.reactive = (
            ReactiveComponent(reactive_config, seed=seed) if reactive else None
        )
        if name:
            self.name = name
        elif conservative and reactive:
            self.name = "carrefour-lp-lwp" if lwp else "carrefour-lp"
        elif reactive:
            self.name = "reactive-only"
        else:
            self.name = "conservative-only"
        self.interval_log: List[LpIntervalLog] = []

    def setup(self, sim: "Simulation") -> None:
        # Algorithm 1 line 1: start with 2MB allocation and promotion
        # enabled — "it is more practical and involves less overhead to
        # enable large pages in the beginning and disable them later".
        # The conservative-only ablation instead starts from 4KB pages
        # (it models retrofitting THP onto the original Carrefour).
        if self.with_reactive:
            sim.thp.enable_alloc()
            sim.thp.enable_promotion()
        else:
            sim.thp.disable_alloc()
            sim.thp.disable_promotion()
        if self.lwp:
            # Ring-buffered sampling: ~8x the sample density at ~1/5 of
            # the per-sample interrupt cost.
            sim.ibs.rate = min(1.0, sim.ibs.rate * 8.0)
            sim.ibs.cost_cycles_per_sample /= 5.0

    def decide(
        self, sim: "Simulation", samples: IbsSamples, window: CounterBank
    ) -> Generator[Decision, Outcome, None]:
        cons_decision = None
        react_decision = None

        # The components run in algorithm order *within one generator*:
        # the executor applies each yielded decision before the next
        # line runs, so the reactive component sees the THP state the
        # conservative one just set, and the Carrefour table is built
        # only after the reactive splits happened — exactly the old
        # self-mutating sequence.
        if self.conservative is not None:
            cons_decision = yield from self.conservative.decide(sim, window)

        if self.reactive is not None:
            react_decision = yield from self.reactive.decide(sim, samples)

        engaged = self.engine.should_engage(window)
        if engaged:
            table = PageSampleTable.from_samples(samples, sim.asp, sim.machine.n_nodes)
            yield from self.engine.decide_placement(
                table, sim.asp, sim.machine.n_nodes
            )
        else:
            yield Note("carrefour disabled (thresholds)")

        self.interval_log.append(
            LpIntervalLog(
                time_s=sim.sim_time_s,
                conservative=cons_decision,
                reactive=react_decision,
                carrefour_engaged=engaged,
            )
        )
