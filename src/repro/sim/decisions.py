"""Typed decisions: the vocabulary policies use to request actions.

Policies never touch the :class:`~repro.vm.address_space.AddressSpace`
themselves.  A policy's :meth:`decide` is a generator that *yields*
decision objects; the engine's :class:`~repro.sim.engine.ActionExecutor`
applies each one against the simulation state and sends back an
:class:`Outcome`, so deciders that rate-limit on actual work performed
(Carrefour's migration budget) see exactly what the mutation achieved.

Every decision knows its *conflict targets* — the pieces of simulation
state it claims (a backing page, a THP toggle, the page tables).  When
several deciders run as a stack, the executor resolves conflicts
deterministically: the first decider to act on a target wins, later
deciders' decisions on the same target are skipped with
``Outcome(applied=False, reason="conflict")``.  A batch
(:class:`MigratePages`) claims one target per entry, so it passes over
only the entries an earlier decider owns and claims only the pages it
moved.

Decisions also know how to serialise themselves (:meth:`payload`) for
the JSONL decision trace (:mod:`repro.sim.trace`).

Every concrete decision class additionally carries two pieces of
*class metadata* that the decision-flow analyzer
(:mod:`repro.analysis.decisionflow`, rules R109-R113) checks statically
against the executor:

* :attr:`Decision.domain` — the conflict domain its :meth:`targets`
  keys live in (``"page"``, ``"thp"``, ``"pt"``, or ``"none"`` for
  purely accounting decisions).  R113 proves the declared domains, the
  literal kind strings in ``targets()``, and the executor's
  ``CONFLICT_DOMAINS`` claim coverage all agree.
* :attr:`Decision.counters` — the :class:`PolicyActionSummary` fields
  the executor's apply-handler must touch.  R112 matches this map
  against the handler's inferred write effects, so a handler that
  mutates state without bumping its conservation counters (or bumps a
  counter it never declared) is a lint error, not a reconciliation
  surprise in the invariant checker.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional, Tuple, TYPE_CHECKING

import numpy as np

from repro.units import NodeArray, NodeId, Pages4KArray

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.policy import PolicyActionSummary

#: Conflict-target key: ("page", backing_id), ("thp", toggle-name) or
#: ("pt", "replication").
Target = Tuple[str, object]


@dataclass(frozen=True)
class Outcome:
    """What the executor did with one decision (sent back to the decider)."""

    applied: bool
    #: Bytes actually moved/copied by the action (0 when nothing moved).
    bytes_moved: int = 0
    #: Pages (or 2MB-equivalents for splits) the action touched.
    count: int = 0
    #: Why the decision was not applied ("" when applied).
    reason: str = ""
    #: Batch decisions only: bytes each entry moved (0 past ``reached``).
    entry_bytes: Optional[np.ndarray] = field(
        default=None, compare=False, repr=False
    )
    #: Batch decisions only: entries the walk reached before the budget
    #: ran out (every entry when it did not).
    reached: int = 0


#: Valid values for :attr:`Decision.domain`.
CONFLICT_DOMAIN_NAMES: Tuple[str, ...] = ("page", "thp", "pt", "none")


@dataclass(frozen=True)
class Decision:
    """Base decision; subclasses define what state they act on."""

    #: Conflict domain of :meth:`targets` keys ("page", "thp", "pt" or
    #: "none").  Checked against targets() and the executor by R113.
    domain: ClassVar[str] = "none"
    #: PolicyActionSummary fields the executor's handler must touch.
    #: Checked against the handler's write effects by R112.
    counters: ClassVar[Tuple[str, ...]] = ()

    def targets(self) -> Tuple[Target, ...]:
        """Conflict-target keys this decision claims (may be empty)."""
        return ()

    def payload(self) -> dict:
        """JSON-able trace record body for this decision."""
        return {"kind": type(self).__name__}


@dataclass(frozen=True)
class ChargeCompute(Decision):
    """Charge daemon compute time (sample processing etc.), seconds."""

    domain: ClassVar[str] = "none"
    counters: ClassVar[Tuple[str, ...]] = ("compute_s",)

    seconds: float

    def payload(self) -> dict:
        return {"kind": "ChargeCompute", "seconds": self.seconds}


@dataclass(frozen=True)
class Note(Decision):
    """Attach a human-readable note to the interval's action summary."""

    domain: ClassVar[str] = "none"
    counters: ClassVar[Tuple[str, ...]] = ("notes", "notes_dropped")

    text: str

    def payload(self) -> dict:
        return {"kind": "Note", "text": self.text}


@dataclass(frozen=True, eq=False)
class MigratePages(Decision):
    """Migrate a batch of backing pages (any sizes), in order, on a budget.

    Carrefour moves each interval's pages as one budgeted batch, and so
    does this decision: the executor walks the batch once through
    :meth:`~repro.vm.address_space.AddressSpace.migrate_backings`, moving
    ``page_ids[i]`` to ``target_nodes[i]`` under the per-page rules of
    ``migrate_backing``, and stops after the migration that spends
    ``budget_bytes``.  The :class:`Outcome` carries the total bytes, the
    pages moved (``count``), the bytes per entry (``entry_bytes``) and
    how many entries the walk reached (``reached``).  Ids must be
    distinct and live.  ``eq=False`` as for :class:`InterleaveRegion`.
    """

    domain: ClassVar[str] = "page"
    counters: ClassVar[Tuple[str, ...]] = (
        "bytes_migrated",
        "migrated_4k",
        "migrated_2m",
    )

    page_ids: np.ndarray
    target_nodes: NodeArray
    budget_bytes: int
    #: Entries to pass over without moving.  The executor sets it to the
    #: pages an earlier member of a policy stack claimed this interval.
    skip: Optional[np.ndarray] = None

    def targets(self) -> Tuple[Target, ...]:
        ids = np.asarray(self.page_ids).tolist()
        return tuple(("page", page_id) for page_id in ids)

    def payload(self) -> dict:
        ids = np.asarray(self.page_ids)
        return {
            "kind": "MigratePages",
            "n_pages": int(ids.size),
            "page_lo": int(ids.min()) if ids.size else None,
            "page_hi": int(ids.max()) if ids.size else None,
            "budget_bytes": self.budget_bytes,
        }


@dataclass(frozen=True, eq=False)
class InterleaveRegion(Decision):
    """Bulk-migrate 4KB-mapped granules to per-granule target nodes.

    ``eq=False``: the numpy payload arrays make value comparison both
    expensive and ambiguous; identity semantics are what the executor
    needs.
    """

    domain: ClassVar[str] = "page"
    counters: ClassVar[Tuple[str, ...]] = ("bytes_migrated", "migrated_4k")

    granules: Pages4KArray
    target_nodes: NodeArray
    #: Backing page the granules came from (conflict key), when known.
    page_id: Optional[int] = None

    def targets(self) -> Tuple[Target, ...]:
        if self.page_id is None:
            return ()
        return (("page", self.page_id),)

    def payload(self) -> dict:
        g = np.asarray(self.granules)
        return {
            "kind": "InterleaveRegion",
            "page_id": self.page_id,
            "n_granules": int(g.size),
            "granule_lo": int(g.min()) if g.size else None,
            "granule_hi": int(g.max()) if g.size else None,
        }


@dataclass(frozen=True)
class Split2M(Decision):
    """Demote one 2MB backing page into 512 4KB pages."""

    domain: ClassVar[str] = "page"
    counters: ClassVar[Tuple[str, ...]] = ("splits_2m",)

    page_id: int
    #: madvise the demoted range NOHUGEPAGE so khugepaged does not
    #: immediately undo the decision.
    block_collapse: bool = True

    def targets(self) -> Tuple[Target, ...]:
        return (("page", self.page_id),)

    def payload(self) -> dict:
        return {
            "kind": "Split2M",
            "page_id": self.page_id,
            "block_collapse": self.block_collapse,
        }


@dataclass(frozen=True)
class Split1G(Decision):
    """Demote one 1GB backing page into 4KB pages."""

    domain: ClassVar[str] = "page"
    counters: ClassVar[Tuple[str, ...]] = ("splits_1g",)

    page_id: int
    block_collapse: bool = True

    def targets(self) -> Tuple[Target, ...]:
        return (("page", self.page_id),)

    def payload(self) -> dict:
        return {
            "kind": "Split1G",
            "page_id": self.page_id,
            "block_collapse": self.block_collapse,
        }


@dataclass(frozen=True)
class Collapse2M(Decision):
    """Promote one fully 4KB-mapped 2MB chunk into a huge page."""

    domain: ClassVar[str] = "page"
    counters: ClassVar[Tuple[str, ...]] = ("collapses_2m",)

    chunk: int
    #: Explicit target node; plurality node of the constituents if None.
    node: Optional[NodeId] = None

    def targets(self) -> Tuple[Target, ...]:
        from repro.vm.address_space import BACKING_ID_2M_OFFSET

        return (("page", self.chunk + BACKING_ID_2M_OFFSET),)

    def payload(self) -> dict:
        return {"kind": "Collapse2M", "chunk": self.chunk, "node": self.node}


@dataclass(frozen=True)
class ToggleThpAlloc(Decision):
    """Enable or disable THP allocation-time backing."""

    domain: ClassVar[str] = "thp"

    enabled: bool

    def targets(self) -> Tuple[Target, ...]:
        return (("thp", "alloc"),)

    def payload(self) -> dict:
        return {"kind": "ToggleThpAlloc", "enabled": self.enabled}


@dataclass(frozen=True)
class ToggleThpPromotion(Decision):
    """Enable or disable khugepaged promotion."""

    domain: ClassVar[str] = "thp"

    enabled: bool

    def targets(self) -> Tuple[Target, ...]:
        return (("thp", "promotion"),)

    def payload(self) -> dict:
        return {"kind": "ToggleThpPromotion", "enabled": self.enabled}


@dataclass(frozen=True)
class ClearCollapseBlocks(Decision):
    """Lift every MADV_NOHUGEPAGE mark left by earlier splits."""

    domain: ClassVar[str] = "thp"

    def targets(self) -> Tuple[Target, ...]:
        return (("thp", "collapse_blocks"),)

    def payload(self) -> dict:
        return {"kind": "ClearCollapseBlocks"}


@dataclass(frozen=True, eq=False)
class ReclaimPages(Decision):
    """Evict 4KB-mapped granules back to the allocator (memory pressure).

    The tenant-scoped reclaim decision for colocation scenarios: under
    host memory pressure a decider picks cold granules and yields one
    of these; the executor unmaps them through
    :meth:`~repro.vm.address_space.AddressSpace.reclaim_granules`, so
    the frames return to the *shared* pool and the next touch demand-
    faults the page back in.  ``eq=False`` for the same reason as
    :class:`InterleaveRegion`: the numpy payload makes value comparison
    expensive and identity is what the executor needs.
    """

    domain: ClassVar[str] = "page"
    counters: ClassVar[Tuple[str, ...]] = (
        "bytes_reclaimed",
        "pages_reclaimed",
    )

    granules: Pages4KArray
    #: Backing page the granules came from (conflict key), when known.
    page_id: Optional[int] = None

    def targets(self) -> Tuple[Target, ...]:
        if self.page_id is None:
            return ()
        return (("page", self.page_id),)

    def payload(self) -> dict:
        g = np.asarray(self.granules)
        return {
            "kind": "ReclaimPages",
            "page_id": self.page_id,
            "n_granules": int(g.size),
            "granule_lo": int(g.min()) if g.size else None,
            "granule_hi": int(g.max()) if g.size else None,
        }


@dataclass(frozen=True)
class ReplicatePage(Decision):
    """Replicate one read-mostly backing page onto every node."""

    domain: ClassVar[str] = "page"
    counters: ClassVar[Tuple[str, ...]] = (
        "bytes_replicated",
        "replicated_pages",
    )

    page_id: int

    def targets(self) -> Tuple[Target, ...]:
        return (("page", self.page_id),)

    def payload(self) -> dict:
        return {"kind": "ReplicatePage", "page_id": self.page_id}


@dataclass(frozen=True)
class ReplicatePageTables(Decision):
    """Replicate the process page tables onto every node (Mitosis)."""

    domain: ClassVar[str] = "pt"
    counters: ClassVar[Tuple[str, ...]] = (
        "bytes_replicated",
        "replicated_pages",
    )

    def targets(self) -> Tuple[Target, ...]:
        return (("pt", "replication"),)

    def payload(self) -> dict:
        return {"kind": "ReplicatePageTables"}


@dataclass(frozen=True, eq=False)
class MergeSummary(Decision):
    """Legacy bridge: fold a pre-built action summary into the interval.

    Yielded by the base :meth:`PlacementPolicy.decide` for policies that
    still implement ``on_interval`` directly (external subclasses); the
    in-tree policies all emit fine-grained decisions instead.
    """

    domain: ClassVar[str] = "none"
    counters: ClassVar[Tuple[str, ...]] = (
        "migrated_4k",
        "migrated_2m",
        "bytes_migrated",
        "splits_2m",
        "splits_1g",
        "collapses_2m",
        "replicated_pages",
        "bytes_replicated",
        "pages_reclaimed",
        "bytes_reclaimed",
        "compute_s",
        "notes",
        "notes_dropped",
    )

    summary: "PolicyActionSummary"

    def payload(self) -> dict:
        s = self.summary
        return {
            "kind": "MergeSummary",
            "migrated_4k": s.migrated_4k,
            "migrated_2m": s.migrated_2m,
            "bytes_migrated": s.bytes_migrated,
            "splits_2m": s.splits_2m,
            "splits_1g": s.splits_1g,
            "collapses_2m": s.collapses_2m,
            "replicated_pages": s.replicated_pages,
            "bytes_replicated": s.bytes_replicated,
            "pages_reclaimed": s.pages_reclaimed,
            "bytes_reclaimed": s.bytes_reclaimed,
            "compute_s": s.compute_s,
            "n_notes": len(s.notes),
        }
