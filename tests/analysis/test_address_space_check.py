"""``check_address_space`` per 2MB chunk against its per-granule oracle.

The shipped check counts each chunk's 4KB mappings from a ``bool`` mask
and derives the "inside a huge/giga page" and ``mapped_count_2m`` checks
from those counts; ``tests/per_granule_checks.py`` keeps the per-granule
body that indexed every mapped granule.  On each kind of corruption both
must raise the same message, and on the spaces of real checked runs
neither may raise.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
import pytest

from repro.analysis import invariants
from repro.analysis.invariants import InvariantViolation
from repro.experiments.runner import RunSpec, build_simulation
from repro.options import CHECK_ENV
from repro.sim.config import SimConfig
from repro.vm.address_space import BACKING_ID_2M_OFFSET, AddressSpace
from repro.vm.frame_allocator import PhysicalMemory
from repro.vm.layout import GRANULES_PER_1G, GRANULES_PER_2M
from tests import per_granule_checks as per_granule

GIB = 1 << 30
#: 1GB chunk 0 is a 1GB page, chunk 1 holds only 2MB pages, and 4KB
#: pages fill chunk 2: five 2MB chunks and a 100-granule last chunk.
HUGE_CHUNKS = (512, 513, 514)
FIRST_4K_CHUNK = 1024
N_GRANULES = 2 * GRANULES_PER_1G + 5 * GRANULES_PER_2M + 100


def _outcome(check: Callable, asp: AddressSpace) -> Optional[str]:
    """The message ``check`` raises on ``asp``, or ``None``."""
    try:
        check(asp)
    except InvariantViolation as exc:
        return str(exc)
    return None


def mixed_space() -> AddressSpace:
    """A 1GB page, three 2MB pages, 4KB pages up to a short last chunk
    (one granule of it left unmapped), and a replica of each size."""
    asp = AddressSpace(N_GRANULES, PhysicalMemory([4 * GIB, 4 * GIB]))
    asp.map_range_1g(0, GRANULES_PER_1G, node=1)
    asp.premap_pattern_2m(HUGE_CHUNKS[0], np.array([0, 1, 0], dtype=np.int8))
    start = FIRST_4K_CHUNK * GRANULES_PER_2M
    nodes = np.arange(N_GRANULES - 1 - start, dtype=np.int8) % 2
    asp.premap_pattern_4k(start, nodes)
    assert asp.replicate_backing(start + 7) > 0
    assert asp.replicate_backing(BACKING_ID_2M_OFFSET + HUGE_CHUNKS[1]) > 0
    return asp


def _set(name: str, index: int, value) -> Callable[[AddressSpace], None]:
    def corrupt(asp: AddressSpace) -> None:
        getattr(asp, name)[index] = value

    return corrupt


def _bump(name: str) -> Callable[[AddressSpace], None]:
    def corrupt(asp: AddressSpace) -> None:
        setattr(asp, name, getattr(asp, name) + 1)

    return corrupt


LAST_CHUNK = N_GRANULES // GRANULES_PER_2M

#: One corruption per message the check can raise, and the message.
CORRUPTIONS = {
    "huge-over-4k": (_set("huge", FIRST_4K_CHUNK, True), "inside a 2MB huge page"),
    "huge-over-short-last-chunk": (
        _set("huge", LAST_CHUNK, True), "inside a 2MB huge page"
    ),
    "giga-over-4k": (_set("giga", 2, True), "4KB mapping inside a 1GB page"),
    "giga-over-huge": (_set("giga", 1, True), "2MB huge page inside a 1GB page"),
    "count-high": (
        _set("mapped_count_2m", FIRST_4K_CHUNK + 1, GRANULES_PER_2M + 1),
        "mapped_count_2m out of sync at chunk 1025",
    ),
    "count-negative": (
        _set("mapped_count_2m", 3, -1), "mapped_count_2m out of sync at chunk 3"
    ),
    "count-short-last-chunk": (
        _set("mapped_count_2m", LAST_CHUNK, 100),
        f"mapped_count_2m out of sync at chunk {LAST_CHUNK}",
    ),
    "unmapped-granule": (
        _set("node4k", FIRST_4K_CHUNK * GRANULES_PER_2M + 9, -1),
        f"out of sync at chunk {FIRST_4K_CHUNK}",
    ),
    "homeless-huge": (_set("node2m", HUGE_CHUNKS[2], -1), "live 2MB page without"),
    "homeless-giga": (_set("node1g", 0, -1), "live 1GB page without"),
    "replica-unmapped": (
        _set("replicated_4k", N_GRANULES - 1, True),
        "replicated granule without a mapping",
    ),
    "replica-not-huge": (
        _set("replicated_2m", FIRST_4K_CHUNK, True), "not huge-backed"
    ),
    "replica-bytes": (_bump("replica_bytes"), "replica byte counter"),
    "replicated-pages": (_bump("replicated_pages"), "replicated page count"),
}


def test_a_clean_mixed_space_passes_both():
    asp = mixed_space()
    assert asp.giga[0] and asp.huge[list(HUGE_CHUNKS)].all()
    assert asp.mapped_count_2m[LAST_CHUNK] == 99
    assert _outcome(invariants.check_address_space, asp) is None
    assert _outcome(per_granule.check_address_space, asp) is None


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_each_corruption_raises_the_oracles_message(case):
    corrupt, expected = CORRUPTIONS[case]
    asp = mixed_space()
    corrupt(asp)
    got = _outcome(invariants.check_address_space, asp)
    assert got is not None and expected in got
    assert got == _outcome(per_granule.check_address_space, asp)


def _layout(asp: AddressSpace) -> frozenset:
    """Which kinds of page a space holds."""
    kinds = {
        "4k": asp.mapped_count_2m.any(),
        "2m": asp.huge.any(),
        "1g": asp.giga.any(),
        "replica": asp.replicated_pages > 0,
    }
    return frozenset(kind for kind, held in kinds.items() if held)


#: Real runs, and the kinds of page some epoch of each holds.
RUNS = {
    # Splits, migration and replication.
    "carrefour-lp": (RunSpec("CG.D", "A", "carrefour-lp"), {"4k", "2m", "replica"}),
    "1g": (RunSpec("SSCA.20", "B", "linux-4k", backing_1g=True), {"1g"}),
    "thp": (RunSpec("Kmeans", "A", "thp"), {"2m"}),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_checked_runs_agree_with_the_oracle(run, monkeypatch):
    """Every per-epoch check of a real run: neither form raises."""
    spec, kinds = RUNS[run]
    outcomes, layouts = [], set()
    shipped = invariants.check_address_space

    def both(asp: AddressSpace) -> None:
        outcomes.append(
            (_outcome(shipped, asp), _outcome(per_granule.check_address_space, asp))
        )
        layouts.add(_layout(asp))
        shipped(asp)

    monkeypatch.setenv(CHECK_ENV, "1")
    monkeypatch.setattr(invariants, "check_address_space", both)
    build_simulation(spec, SimConfig.quick()).run()
    assert len(outcomes) == 16
    assert outcomes == [(None, None)] * 16
    assert kinds <= set().union(*layouts)
