"""Per-page reference implementation of the batched migration kernel.

The decision kernel used to move pages one decision at a time: a decider
yielded ``MigratePage(page_id, target_node)``, the executor applied it
with :meth:`AddressSpace.migrate_backing` and sent the :class:`Outcome`
back, and the decider spent its budget page by page.  The shipped kernel
sends one :class:`~repro.sim.decisions.MigratePages` batch per interval
instead.  This module keeps the per-page loops as oracles: the
equivalence tests drive both against identical copies of the state and
require identical results, allocator internals included.

It also keeps the sample table as a ``(pages x nodes)`` count matrix
(:func:`node_matrix_columns`): the shipped
:class:`~repro.core.metrics.PageSampleTable` stores one column per
statistic, built by one sort, and must equal the matrix's row
reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Dict, Generator, Optional, Tuple

import numpy as np

from repro.core.autonuma import AutoNumaPolicy
from repro.core.carrefour import CarrefourEngine
from repro.core.metrics import PageSampleTable
from repro.hardware.ibs import IbsSamples
from repro.sim.decisions import (
    ChargeCompute,
    Decision,
    Note,
    Outcome,
    ReplicatePage,
    Target,
)
from repro.sim.engine import ActionExecutor
from repro.sim.policy import PolicyActionSummary
from repro.vm.address_space import AddressSpace
from repro.vm.layout import PAGE_2M, PAGE_4K


@dataclass(frozen=True)
class MigratePage(Decision):
    """Migrate one backing page (any size) to ``target_node``."""

    domain: ClassVar[str] = "page"
    counters: ClassVar[Tuple[str, ...]] = (
        "bytes_migrated",
        "migrated_4k",
        "migrated_2m",
    )

    page_id: int
    target_node: int

    def targets(self) -> Tuple[Target, ...]:
        return (("page", self.page_id),)


class PerPageExecutor(ActionExecutor):
    """The executor plus the per-page migration handler."""

    def _apply_migrate_page(
        self, sim, decision: MigratePage, summary: PolicyActionSummary
    ) -> Outcome:
        moved = sim.asp.migrate_backing(
            decision.page_id, decision.target_node
        )
        if moved == 0:
            return Outcome(applied=False, reason="not moved")
        summary.bytes_migrated += moved
        if moved == PAGE_4K:
            summary.migrated_4k += 1
        elif moved == PAGE_2M:
            summary.migrated_2m += 1
        return Outcome(applied=True, bytes_moved=moved, count=1)

    HANDLERS = {**ActionExecutor.HANDLERS, MigratePage: _apply_migrate_page}


def migrate_backing_loop(
    asp: AddressSpace,
    page_ids,
    target_nodes,
    budget_bytes: int,
    skip: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, int]:
    """``migrate_backings`` as one ``migrate_backing`` call per entry."""
    moved = np.zeros(len(page_ids), dtype=np.int64)
    remaining = budget_bytes
    reached = 0
    for i, (page_id, node) in enumerate(zip(page_ids, target_nodes)):
        if remaining <= 0:
            break
        reached = i + 1
        if skip is not None and skip[i]:
            continue
        moved[i] = asp.migrate_backing(int(page_id), int(node))
        remaining -= int(moved[i])
    return moved, reached


class PerPageCarrefourEngine(CarrefourEngine):
    """Carrefour deciding, and spending its budget, one page at a time."""

    def decide_placement(
        self,
        table: PageSampleTable,
        address_space: AddressSpace,
        n_nodes: int,
    ) -> Generator[Decision, Outcome, None]:
        cfg = self.config
        yield ChargeCompute(table.n_samples * cfg.compute_s_per_sample)
        if table.ids.size == 0:
            return
        totals = table.totals
        eligible = totals >= cfg.min_samples_per_page
        order = np.argsort(-totals)
        order = order[eligible[order]]
        single = table.single_node_mask()
        dominant = table.dominant_nodes()
        read_only = table.read_only_mask()
        replication_ok = cfg.replication_enabled and self._memory_headroom(
            address_space
        )
        replication_candidates: list = []
        budget = cfg.max_migration_bytes_per_interval
        for idx in order:
            if budget <= 0:
                yield Note("migration budget exhausted")
                break
            page_id = int(table.ids[idx])
            if not address_space.backing_is_live(page_id):
                continue
            if single[idx]:
                target = int(dominant[idx])
                self._interleaved.discard(page_id)
            else:
                if (
                    replication_ok
                    and read_only[idx]
                    and totals[idx] >= cfg.replication_min_samples
                ):
                    replication_candidates.append(page_id)
                if page_id in self._interleaved:
                    continue
                target = int(self._rng.integers(0, n_nodes))
                self._interleaved.add(page_id)
            outcome = yield MigratePage(page_id, target)
            if not outcome.applied:
                continue
            budget -= outcome.bytes_moved

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


class PerPageAutoNumaPolicy(AutoNumaPolicy):
    """AutoNUMA migrating, and spending its budget, one page at a time."""

    def decide(self, sim, samples, window) -> Generator[Decision, Outcome, None]:
        yield ChargeCompute(len(samples) * self.config.hint_fault_cost_s)
        if len(samples) == 0:
            return
        table = PageSampleTable.from_samples(samples, sim.asp, sim.machine.n_nodes)
        dominant = table.dominant_nodes()
        budget = self.config.max_migration_bytes_per_interval
        order = np.argsort(-table.totals)
        for idx in order:
            if budget <= 0:
                yield Note("migration budget exhausted")
                break
            page_id = int(table.ids[idx])
            if not sim.asp.backing_is_live(page_id):
                self._streaks.pop(page_id, None)
                continue
            node = int(dominant[idx])
            last, streak = self._streaks.get(page_id, (-1, 0))
            streak = streak + 1 if node == last else 1
            self._streaks[page_id] = (node, streak)
            if streak < self.config.migrate_streak:
                continue
            outcome = yield MigratePage(page_id, node)
            if not outcome.applied:
                continue
            budget -= outcome.bytes_moved


def node_matrix_columns(
    samples: IbsSamples,
    address_space: AddressSpace,
    n_nodes: int,
    granularity: str = "backing",
) -> Dict[str, np.ndarray]:
    """A sample table's columns, through a ``(pages x nodes)`` matrix.

    The grouping ``PageSampleTable`` did before it kept columns:
    ``np.unique`` over the page keys, a bincount of ``page * n_nodes +
    node`` reshaped to a float64 count per page and node, and a
    weighted bincount of stores; then the row reductions its readers
    did (``sum``, the count of nonzero nodes, ``argmax``).  The second
    sort it made, of packed page-thread pairs, counted distinct threads
    per page for a column nothing read; it is left out.
    """
    if len(samples) == 0:
        ids = np.empty(0, dtype=np.int64)
        node_counts = np.empty((0, n_nodes))
        write_counts = np.empty(0)
    else:
        if granularity == "backing":
            keys = address_space.backing_ids(samples.granule)
        else:
            keys = np.asarray(samples.granule, dtype=np.int64)
        ids, inverse = np.unique(keys, return_inverse=True)
        inverse = inverse.astype(np.int64).reshape(-1)
        node_counts = (
            np.bincount(
                inverse * n_nodes + samples.accessing_node.astype(np.int64),
                minlength=ids.size * n_nodes,
            )
            .reshape(ids.size, n_nodes)
            .astype(np.float64)
        )
        write_counts = np.bincount(
            inverse,
            weights=samples.is_write.astype(np.float64),
            minlength=ids.size,
        )
    return {
        "ids": ids,
        "totals": node_counts.sum(axis=1),
        "nodes_touching": (node_counts > 0).sum(axis=1),
        "dominant": (
            np.argmax(node_counts, axis=1)
            if ids.size
            else np.empty(0, dtype=np.int64)
        ),
        "write_counts": write_counts,
    }
