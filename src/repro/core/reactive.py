"""The reactive component of Carrefour-LP (paper Section 3.2.1).

Every monitoring interval it predicts, from the IBS samples, the LAR
that Carrefour's migrate/interleave rule would achieve (a) at the
current page sizes and (b) if all large pages were additionally split
into 4KB pages (Algorithm 1, lines 10-18):

* if Carrefour alone is predicted to improve the LAR by more than 15%,
  splitting is not needed (``SPLIT_PAGES = False``);
* otherwise, if splitting is predicted to buy at least a further 5%,
  ``SPLIT_PAGES = True``;
* when splitting is on (or 2MB allocation is already disabled), all
  *shared* large pages are demoted to 4KB and 2MB allocation is
  disabled.

Independently of the LAR estimates, *hot* large pages — more than 6%
of sampled accesses, i.e. over half of a node's fair share on an
8-node machine — are always split and their constituent 4KB pages
interleaved across nodes (line 19): a single page hotter than that
cannot be balanced by migration no matter where it goes.

The component is a decider: splits, interleaves and THP toggles are
yielded as typed :mod:`repro.sim.decisions` for the executor, and the
:class:`ReactiveDecision` log record is the generator's return value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, List, Optional, TYPE_CHECKING

import numpy as np

from repro._util import rng_for
from repro.errors import ConfigurationError
from repro.hardware.ibs import IbsSamples
from repro.core.lar_estimator import LarEstimate, estimate_lar_after_carrefour
from repro.core.metrics import PageSampleTable
from repro.sim.decisions import (
    ChargeCompute,
    Decision,
    InterleaveRegion,
    Outcome,
    Split1G,
    Split2M,
    ToggleThpAlloc,
    ToggleThpPromotion,
)
from repro.vm.address_space import BACKING_ID_2M_OFFSET

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation


@dataclass(frozen=True)
class ReactiveConfig:
    """Thresholds of the reactive component.

    ``carrefour_gain_threshold_pct`` (15%) decides "we can fix it by
    moving pages"; ``split_gain_threshold_pct`` (5%) is the minimum
    predicted benefit that justifies splitting; ``hot_page_pct`` (6%)
    defines a hot page, following footnote 3 of the paper.
    """

    carrefour_gain_threshold_pct: float = 15.0
    split_gain_threshold_pct: float = 5.0
    hot_page_pct: float = 6.0
    compute_s_per_sample: float = 3e-7
    #: After performing shared-page splits, skip further split rounds
    #: for this many intervals.  The LAR estimate is optimistic when
    #: samples are sparse (paper Section 4.1); the cooldown gives the
    #: conservative component and khugepaged time to undo a bad split
    #: instead of thrashing every second (paper Section 4.3 notes the
    #: full algorithm's robustness to transient states).
    split_cooldown_intervals: int = 2
    #: When the cooldown expires, the measured LAR is compared against
    #: the LAR at split time; if splitting did not deliver its promised
    #: gain (a misestimate, as the paper observed on SSCA), further
    #: shared-page splitting is suppressed for this many intervals.
    misprediction_backoff_intervals: int = 6

    def __post_init__(self) -> None:
        if self.split_gain_threshold_pct < 0 or self.carrefour_gain_threshold_pct < 0:
            raise ConfigurationError("gain thresholds must be non-negative")
        if not 0 < self.hot_page_pct <= 100:
            raise ConfigurationError("hot_page_pct must be in (0, 100]")


@dataclass
class ReactiveDecision:
    """Outcome of one reactive step (for logging and tests)."""

    estimate: Optional[LarEstimate] = None
    split_pages: bool = False
    shared_pages_split: int = 0
    hot_pages_split: int = 0
    granules_interleaved: int = 0
    notes: List[str] = field(default_factory=list)


class ReactiveComponent:
    """Splits large pages when placement alone cannot fix NUMA issues."""

    def __init__(
        self, config: ReactiveConfig = ReactiveConfig(), seed: int = 0
    ) -> None:
        self.config = config
        self.split_pages = False
        self._rng = rng_for(seed, "reactive")
        self._cooldown = 0
        self._backoff = 0
        self._lar_at_split: Optional[float] = None

    def decide(
        self, sim: "Simulation", samples: IbsSamples
    ) -> Generator[Decision, Outcome, ReactiveDecision]:
        """Algorithm 1 lines 10-19 for one monitoring interval."""
        decision = ReactiveDecision(split_pages=self.split_pages)
        yield ChargeCompute(len(samples) * self.config.compute_s_per_sample)
        if len(samples) == 0:
            decision.notes.append("no samples")
            return decision

        estimate = estimate_lar_after_carrefour(
            samples, sim.asp, sim.machine.n_nodes
        )
        decision.estimate = estimate
        if estimate.carrefour_gain > self.config.carrefour_gain_threshold_pct:
            self.split_pages = False
        elif estimate.split_gain > self.config.split_gain_threshold_pct:
            self.split_pages = True
        decision.split_pages = self.split_pages

        table = PageSampleTable.from_samples(
            samples, sim.asp, sim.machine.n_nodes, granularity="backing"
        )
        large = table.ids >= BACKING_ID_2M_OFFSET

        if self._cooldown > 0:
            self._cooldown -= 1
            decision.notes.append("split cooldown")
            if self._cooldown == 0 and self._lar_at_split is not None:
                # Post-split validation: did splitting deliver?
                gain = estimate.current - self._lar_at_split
                if gain < self.config.split_gain_threshold_pct:
                    self.split_pages = False
                    decision.split_pages = False
                    self._backoff = self.config.misprediction_backoff_intervals
                    decision.notes.append(
                        f"split misprediction (gain {gain:+.1f}%), backing off"
                    )
                self._lar_at_split = None
        elif self._backoff > 0:
            self._backoff -= 1
            decision.notes.append("split backoff")
        elif self.split_pages or not sim.thp.alloc_enabled:
            shared_large = large & table.shared_mask()
            for pid in table.ids[shared_large]:
                pid = int(pid)
                if not sim.asp.backing_is_live(pid):
                    continue
                if pid >= (1 << 41):  # 1GB id space
                    yield Split1G(pid)
                else:
                    yield Split2M(pid)
                decision.shared_pages_split += 1
            # Disabling 2MB allocation also parks khugepaged: in Linux,
            # setting THP enabled=never stops both paths.
            yield ToggleThpAlloc(False)
            yield ToggleThpPromotion(False)
            if decision.shared_pages_split:
                self._cooldown = self.config.split_cooldown_intervals
                self._lar_at_split = estimate.current

        # Hot large pages are split and interleaved regardless.
        hot_large = large & table.hot_mask(self.config.hot_page_pct)
        for pid in table.ids[hot_large]:
            pid = int(pid)
            if not sim.asp.backing_is_live(pid):
                continue  # already split above
            granules = sim.asp.granules_of_backing(pid)
            if pid >= (1 << 41):
                yield Split1G(pid)
            else:
                yield Split2M(pid)
            decision.hot_pages_split += 1
            # Interleave the constituent 4KB pages round-robin across
            # nodes, starting at a random offset.
            start = int(self._rng.integers(0, sim.machine.n_nodes))
            targets = (start + np.arange(granules.size)) % sim.machine.n_nodes
            yield InterleaveRegion(granules, targets, page_id=pid)
            decision.granules_interleaved += int(granules.size)
        if decision.hot_pages_split:
            decision.notes.append(
                f"split+interleaved {decision.hot_pages_split} hot pages"
            )
        return decision
