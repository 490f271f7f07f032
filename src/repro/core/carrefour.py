"""The Carrefour placement engine [Dashti et al., ASPLOS'13].

Carrefour gathers per-page access samples and chooses a host node per
page: pages sampled from a single node migrate to that node; pages
sampled from several nodes are *interleaved* (migrated to a random
node).  Global hardware-counter thresholds gate the whole mechanism so
it only acts when a NUMA problem exists (low LAR or high controller
imbalance on a memory-intensive application).

Run over 2MB-backed memory this is the paper's **Carrefour-2M**; the
same engine at 4KB granularity is the original Carrefour.  The engine
is deliberately size-agnostic: it acts on whatever backing pages the
address space currently has, which is what lets Carrefour-LP reuse it
after splitting.

The engine is a *decider*: :meth:`CarrefourEngine.decide_placement`
yields typed :mod:`repro.sim.decisions` and rate-limits its migration
budget on the :class:`~repro.sim.decisions.Outcome` the executor sends
back — it never touches the address space itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional, Set, TYPE_CHECKING

import numpy as np

from repro._util import rng_for
from repro.errors import ConfigurationError
from repro.hardware.counters import CounterBank
from repro.hardware.ibs import IbsSamples
from repro.core.metrics import PageSampleTable
from repro.sim.decisions import (
    ChargeCompute,
    Decision,
    MigratePages,
    Note,
    Outcome,
    ReplicatePage,
)
from repro.sim.policy import PlacementPolicy
from repro.vm.address_space import AddressSpace

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation


@dataclass(frozen=True)
class CarrefourConfig:
    """Thresholds and budgets for the Carrefour engine.

    The enable thresholds follow the Carrefour paper: act only on
    memory-intensive applications (MAPTU above a floor) that show a
    NUMA problem (LAR below ``lar_threshold_pct`` or imbalance above
    ``imbalance_threshold_pct``).  The migration budget rate-limits how
    much memory moves per 1-second interval, modelling the kernel's
    bounded migration throughput.
    """

    min_maptu: float = 50.0
    lar_threshold_pct: float = 80.0
    imbalance_threshold_pct: float = 35.0
    min_samples_per_page: int = 1
    max_migration_bytes_per_interval: int = 512 * 1024 * 1024
    #: Daemon compute cost per processed sample (decision-making).
    compute_s_per_sample: float = 2e-7
    #: Carrefour's third mechanism [Dashti'13]: replicate read-mostly
    #: shared pages onto every node instead of interleaving them.
    replication_enabled: bool = True
    #: Samples a page needs, all of them loads, before it is considered
    #: safely read-only.
    replication_min_samples: int = 6
    #: Leave replication off when free memory is scarce (fraction of
    #: total DRAM that must remain free).
    replication_min_free_fraction: float = 0.10

    def __post_init__(self) -> None:
        if self.min_samples_per_page < 1:
            raise ConfigurationError("min_samples_per_page must be >= 1")
        if self.max_migration_bytes_per_interval < 0:
            raise ConfigurationError("migration budget must be non-negative")


class CarrefourEngine:
    """Stateful Carrefour decider over an address space."""

    def __init__(self, config: Optional[CarrefourConfig] = None, seed: int = 0) -> None:
        self.config = config or CarrefourConfig()
        self._rng = rng_for(seed, "carrefour")
        #: Pages already interleaved; not re-randomised every interval
        #: (avoids ping-pong).
        self._interleaved: Set[int] = set()

    def should_engage(self, window: CounterBank) -> bool:
        """Global enable decision from the interval's hardware counters."""
        cfg = self.config
        if window.maptu() < cfg.min_maptu:
            return False
        return (
            window.lar() < cfg.lar_threshold_pct
            or window.imbalance() > cfg.imbalance_threshold_pct
        )

    def decide_placement(
        self,
        table: PageSampleTable,
        address_space: AddressSpace,
        n_nodes: int,
    ) -> Generator[Decision, Outcome, None]:
        """Yield the interval's migrate/interleave batch, then replicas.

        Every sampled page still live gets an entry, hottest first:
        pages sampled from one node go to that node, shared pages not
        yet interleaved go to a random node.  The executor walks the
        batch until the budget is spent; state is then updated for the
        pages the walk reached, as if each had been decided in turn.
        """
        cfg = self.config
        yield ChargeCompute(table.n_samples * cfg.compute_s_per_sample)
        if table.ids.size == 0:
            return
        totals = table.totals
        eligible = totals >= cfg.min_samples_per_page
        # Hottest pages first: under a finite budget, moving them pays most.
        order = np.argsort(-totals)
        order = order[eligible[order]]
        budget = cfg.max_migration_bytes_per_interval
        if order.size == 0:
            return
        if budget <= 0:
            yield Note("migration budget exhausted")
            return
        ids = table.ids[order]
        # Pages sampled before a split/collapse changed the backing are
        # no longer live and are left alone.
        live = address_space.backings_live(ids)
        single = table.single_node_mask()[order]
        shared = live & ~single
        single &= live
        interleaved = self._interleaved
        fresh = shared & np.array(
            [page_id not in interleaved for page_id in ids.tolist()], dtype=bool
        )
        # Shared pages already interleaved stay where they are (no
        # ping-pong); every fresh one draws a random node, in walk order.
        # One integers(size=k) call consumes the stream exactly as k
        # scalar draws do.
        targets = table.dominant_nodes()[order]
        n_fresh = int(np.count_nonzero(fresh))
        rng_state = self._rng.bit_generator.state
        if n_fresh:
            targets[fresh] = self._rng.integers(0, n_nodes, size=n_fresh)
        replication_ok = cfg.replication_enabled and self._memory_headroom(
            address_space
        )
        # The walk covers the sampled pages up to the entry that spent
        # the budget; pages past it are not decided this interval.
        walked = ids.size
        batch = np.flatnonzero(single | fresh)
        if batch.size:
            outcome = yield MigratePages(ids[batch], targets[batch], budget)
            budget -= outcome.bytes_moved
            if budget <= 0:
                walked = int(batch[outcome.reached - 1]) + 1
        drawn = int(np.count_nonzero(fresh[:walked]))
        if drawn < n_fresh:
            self._rng.bit_generator.state = rng_state
            if drawn:
                self._rng.integers(0, n_nodes, size=drawn)
        interleaved.difference_update(ids[:walked][single[:walked]].tolist())
        interleaved.update(ids[:walked][fresh[:walked]].tolist())
        if walked < ids.size:
            yield Note("migration budget exhausted")
        # Read-mostly shared pages with enough evidence are replication
        # candidates, but balance comes first: they are interleaved in
        # the batch (one cheap migration) and upgraded to per-node
        # replicas with whatever budget remains — otherwise a single
        # interval of expensive copies would leave the hot node standing.
        replication_candidates: list = []
        if replication_ok:
            upgrade = (
                shared
                & table.read_only_mask()[order]
                & (totals[order] >= cfg.replication_min_samples)
            )
            replication_candidates = ids[:walked][upgrade[:walked]].tolist()

        # Second pass: spend leftover budget upgrading read-mostly
        # shared pages to replicas (hottest first, as ordered above).
        for page_id in replication_candidates:
            if budget <= 0:
                yield Note("replication deferred (budget)")
                break
            if not address_space.backing_is_live(page_id):
                continue
            outcome = yield ReplicatePage(page_id)
            if outcome.applied:
                budget -= outcome.bytes_moved
                self._interleaved.discard(page_id)

    def _memory_headroom(self, address_space: AddressSpace) -> bool:
        """Whether free memory permits replication (Carrefour's gate)."""
        phys = address_space.phys
        total = phys.total_free_bytes + phys.total_used_bytes
        if total <= 0:
            return False
        return (
            phys.total_free_bytes / total
            > self.config.replication_min_free_fraction
        )

    def forget_page(self, page_id: int) -> None:
        """Drop interleave history for a page (e.g. after splitting it)."""
        self._interleaved.discard(page_id)


class CarrefourPolicy(PlacementPolicy):
    """Pure Carrefour as a placement policy.

    ``thp=True`` gives the paper's Carrefour-2M (Linux THP plus
    Carrefour migration/interleaving of whatever pages exist, including
    2MB ones); ``thp=False`` gives the original Carrefour on 4KB pages.
    """

    interval_s = 1.0

    def __init__(
        self,
        thp: bool,
        config: Optional[CarrefourConfig] = None,
        seed: int = 0,
        name: Optional[str] = None,
    ) -> None:
        self.thp = thp
        self.engine = CarrefourEngine(config, seed=seed)
        self.name = name or ("carrefour-2m" if thp else "carrefour-4k")

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
        if not self.engine.should_engage(window):
            yield Note("carrefour disabled (thresholds)")
            return
        table = PageSampleTable.from_samples(
            samples, sim.asp, sim.machine.n_nodes, granularity="backing"
        )
        yield from self.engine.decide_placement(
            table, sim.asp, sim.machine.n_nodes
        )
