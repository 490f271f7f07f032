"""A model of Linux AutoNUMA (NUMA balancing) as a baseline policy.

Mainline Linux's answer to NUMA placement is *NUMA balancing*: a
per-task scanner periodically write-protects windows of the address
space; the resulting *hint faults* reveal which node touches each page,
and a page that faults from the same remote node twice in a row (the
two-stage filter) is migrated there.

This is the natural comparison point for Carrefour-LP because NUMA
balancing shares Carrefour's blind spots — and adds its own:

* it migrates whole huge pages and never splits them, so the hot-page
  effect and page-level false sharing are out of reach;
* pages genuinely shared by several nodes *ping-pong*: each interval
  they hop to the most recent faulting node instead of being
  interleaved once;
* hint faults cost real time on every sampled access (scan overhead),
  unlike IBS sampling which is interrupt-driven and sparse.

The model drives the same decision rule from the simulated access
stream: sampled accesses stand in for hint faults, a per-page
(last_node, streak) table implements the two-stage filter, and
migrations are charged through the usual cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Generator, Optional, TYPE_CHECKING, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware.counters import CounterBank
from repro.hardware.ibs import IbsSamples
from repro.core.metrics import PageSampleTable
from repro.sim.decisions import ChargeCompute, Decision, MigratePages, Note, Outcome
from repro.sim.policy import PlacementPolicy

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation


@dataclass(frozen=True)
class AutoNumaConfig:
    """Tunables of the NUMA-balancing model.

    ``hint_fault_cost_s`` is the handler cost of one hint fault
    (protection fault + bookkeeping); the scanner effectively converts
    the sampled accesses of each interval into hint faults.
    ``migrate_streak`` is the two-stage filter: a page moves only after
    this many consecutive faults from the same remote node.
    """

    hint_fault_cost_s: float = 1.2e-6
    migrate_streak: int = 2
    max_migration_bytes_per_interval: int = 256 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.hint_fault_cost_s < 0:
            raise ConfigurationError("hint_fault_cost_s must be non-negative")
        if self.migrate_streak < 1:
            raise ConfigurationError("migrate_streak must be >= 1")
        if self.max_migration_bytes_per_interval < 0:
            raise ConfigurationError("migration budget must be non-negative")


class AutoNumaPolicy(PlacementPolicy):
    """Linux NUMA balancing: hint-fault-driven migrate-to-accessor.

    ``thp=True`` models mainline defaults (NUMA balancing and THP both
    on); ``thp=False`` isolates the balancing behaviour on 4KB pages.
    """

    interval_s = 1.0

    def __init__(
        self,
        thp: bool = True,
        config: Optional[AutoNumaConfig] = None,
        name: Optional[str] = None,
    ) -> None:
        self.thp = thp
        self.config = config or AutoNumaConfig()
        self.name = name or ("autonuma" if thp else "autonuma-4k")
        #: page id -> (last faulting node, consecutive-fault streak)
        self._streaks: Dict[int, Tuple[int, int]] = {}

    def setup(self, sim: "Simulation") -> None:
        if self.thp:
            sim.thp.enable_alloc()
            sim.thp.enable_promotion()
        else:
            sim.thp.disable_alloc()
            sim.thp.disable_promotion()

    def decide(
        self, sim: "Simulation", samples: IbsSamples, window: CounterBank
    ) -> Generator[Decision, Outcome, None]:
        # Every sampled access is a hint fault the scanner provoked.
        yield ChargeCompute(len(samples) * self.config.hint_fault_cost_s)
        if len(samples) == 0:
            return
        table = PageSampleTable.from_samples(
            samples, sim.asp, sim.machine.n_nodes, granularity="backing"
        )
        budget = self.config.max_migration_bytes_per_interval
        if budget <= 0:
            yield Note("migration budget exhausted")
            return
        order = np.argsort(-table.totals)
        ids = table.ids[order]
        nodes = table.dominant_nodes()[order]
        page_ids = ids.tolist()
        # Each page's streak after this interval's fault (None: the page
        # is gone).  Ids are distinct, so no page sees another's update.
        streaks = []
        for page_id, node, live in zip(
            page_ids, nodes.tolist(), sim.asp.backings_live(ids).tolist()
        ):
            if not live:
                streaks.append(None)
                continue
            last, streak = self._streaks.get(page_id, (-1, 0))
            streaks.append((node, streak + 1 if node == last else 1))
        batch = np.array(
            [
                i
                for i, entry in enumerate(streaks)
                if entry is not None and entry[1] >= self.config.migrate_streak
            ],
            dtype=np.int64,
        )
        # Hottest first, until the budget is spent: the streak table
        # advances only for the pages the walk reached.
        walked = len(page_ids)
        if batch.size:
            outcome = yield MigratePages(ids[batch], nodes[batch], budget)
            if budget - outcome.bytes_moved <= 0:
                walked = int(batch[outcome.reached - 1]) + 1
        for page_id, entry in zip(page_ids[:walked], streaks[:walked]):
            if entry is None:
                self._streaks.pop(page_id, None)
            else:
                self._streaks[page_id] = entry
        if walked < len(page_ids):
            yield Note("migration budget exhausted")
