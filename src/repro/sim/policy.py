"""Placement-policy interface and the baseline Linux policies.

A policy configures the initial THP state and optionally runs as a
periodic daemon (Carrefour's 1-second interval).  Each daemon interval
the policy *decides*: :meth:`PlacementPolicy.decide` is a generator
yielding typed :mod:`repro.sim.decisions` objects (migrate / interleave
/ split / collapse / toggle THP / replicate), and the engine's
:class:`~repro.sim.engine.ActionExecutor` applies them against the
address space, accounts their cost, and sends each decision's
:class:`~repro.sim.decisions.Outcome` back into the generator.
Policies therefore never mutate the address space themselves — the
``core/`` modules are pure-ish deciders, which is what makes decisions
traceable (:mod:`repro.sim.trace`) and policies composable
(:class:`PolicyStack`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Generator, List, Optional, Sequence, TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.hardware.counters import CounterBank
from repro.hardware.ibs import IbsSamples
from repro.sim.decisions import Decision, Outcome

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation


@dataclass
class PolicyActionSummary:
    """What a daemon invocation did, for cost accounting and logging."""

    #: Cap on accumulated notes: long runs merge hundreds of interval
    #: summaries and the numeric fields are what cost accounting needs;
    #: overflow is recorded in :attr:`notes_dropped` instead of growing
    #: the list without bound.
    MAX_NOTES: ClassVar[int] = 64

    migrated_4k: int = 0
    migrated_2m: int = 0
    bytes_migrated: int = 0
    splits_2m: int = 0
    splits_1g: int = 0
    collapses_2m: int = 0
    replicated_pages: int = 0
    bytes_replicated: int = 0
    #: 4KB pages evicted by ReclaimPages decisions (memory pressure).
    pages_reclaimed: int = 0
    bytes_reclaimed: int = 0
    #: Daemon compute time (sample processing etc.), seconds.
    compute_s: float = 0.0
    notes: List[str] = field(default_factory=list)
    #: Notes discarded because the list already held MAX_NOTES entries.
    notes_dropped: int = 0

    def add_note(self, text: str) -> None:
        """Append a note, counting instead of growing past the cap."""
        if len(self.notes) < self.MAX_NOTES:
            self.notes.append(text)
        else:
            self.notes_dropped += 1

    def merge(self, other: "PolicyActionSummary") -> None:
        """Accumulate another summary into this one."""
        self.migrated_4k += other.migrated_4k
        self.migrated_2m += other.migrated_2m
        self.bytes_migrated += other.bytes_migrated
        self.splits_2m += other.splits_2m
        self.splits_1g += other.splits_1g
        self.collapses_2m += other.collapses_2m
        self.replicated_pages += other.replicated_pages
        self.bytes_replicated += other.bytes_replicated
        self.pages_reclaimed += other.pages_reclaimed
        self.bytes_reclaimed += other.bytes_reclaimed
        self.compute_s += other.compute_s
        self.notes_dropped += other.notes_dropped
        room = self.MAX_NOTES - len(self.notes)
        if room >= len(other.notes):
            self.notes.extend(other.notes)
        else:
            if room > 0:
                self.notes.extend(other.notes[:room])
            self.notes_dropped += len(other.notes) - max(room, 0)


class PlacementPolicy:
    """Base policy: no daemon, THP fully on or off.

    Subclasses override :meth:`setup` to configure initial state and
    :meth:`decide` to emit decisions from monitoring data.
    """

    #: Human-readable policy name (used in reports).
    name: str = "base"
    #: Seconds of simulated time between daemon invocations;
    #: ``None`` disables the daemon entirely.
    interval_s: Optional[float] = 1.0
    #: Place new allocations round-robin across nodes (numactl-style
    #: --interleave) instead of first-touch.
    alloc_interleave: bool = False

    def setup(self, sim: "Simulation") -> None:
        """Configure initial THP state and any policy-private state."""

    def decide(
        self, sim: "Simulation", samples: IbsSamples, window: CounterBank
    ) -> Generator[Decision, Outcome, None]:
        """One daemon invocation: yield decisions for the executor.

        The executor ``send()``s an :class:`~repro.sim.decisions.Outcome`
        back for every yielded decision, so deciders can rate-limit on
        work actually performed.  The base policy decides nothing.
        """
        yield from ()

    def deciders(self) -> Sequence["PlacementPolicy"]:
        """The decider sequence the executor runs each interval."""
        return (self,)

    def wants_ibs(self) -> bool:
        """Whether the engine should collect IBS samples for this policy."""
        return self.interval_s is not None


class LinuxPolicy(PlacementPolicy):
    """Default Linux: first-touch placement, THP on or off, no daemon.

    ``thp=False`` reproduces the paper's "Linux" baseline (4KB pages);
    ``thp=True`` reproduces "THP" (2MB pages via transparent huge
    pages, allocation + khugepaged promotion).  ``interleave=True``
    switches allocation to numactl-style round-robin placement — the
    classic manual remedy that trades locality for balance.
    """

    interval_s: Optional[float] = None

    def __init__(self, thp: bool, interleave: bool = False) -> None:
        self.thp = thp
        self.alloc_interleave = interleave
        if interleave:
            self.name = "interleave-thp" if thp else "interleave-4k"
        else:
            self.name = "thp" if thp else "linux-4k"

    def setup(self, sim: "Simulation") -> None:
        if self.thp:
            sim.thp.enable_alloc()
            sim.thp.enable_promotion()
        else:
            sim.thp.disable_alloc()
            sim.thp.disable_promotion()

    def wants_ibs(self) -> bool:
        return False


class PolicyStack(PlacementPolicy):
    """Several policies composed into one: a stack of deciders.

    Members keep their own private state and decide in order each
    interval; the executor applies their decisions with deterministic
    conflict resolution (first decider to act on a page / THP toggle /
    the page tables wins, later deciders' conflicting decisions are
    skipped).  Setup runs in member order, so later members' initial
    state wins where they overlap — compose accordingly.
    """

    def __init__(
        self,
        members: Sequence[PlacementPolicy],
        name: Optional[str] = None,
    ) -> None:
        if not members:
            raise ConfigurationError("a policy stack needs at least one member")
        self.members = tuple(members)
        self.name = name or "+".join(m.name for m in self.members)
        intervals = [
            m.interval_s for m in self.members if m.interval_s is not None
        ]
        self.interval_s = min(intervals) if intervals else None
        self.alloc_interleave = any(m.alloc_interleave for m in self.members)

    def setup(self, sim: "Simulation") -> None:
        for member in self.members:
            member.setup(sim)

    def deciders(self) -> Sequence[PlacementPolicy]:
        out: List[PlacementPolicy] = []
        for member in self.members:
            out.extend(member.deciders())
        return tuple(out)

    def wants_ibs(self) -> bool:
        return any(m.wants_ibs() for m in self.members)
