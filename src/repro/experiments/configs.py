"""Policy registry: the placement configurations the paper evaluates."""

from __future__ import annotations

import re
from pathlib import Path
from typing import Callable, Dict, List

from repro.errors import ConfigurationError, UnknownPolicyError
from repro.core.autonuma import AutoNumaPolicy
from repro.core.carrefour import CarrefourPolicy
from repro.core.carrefour_lp import CarrefourLpPolicy
from repro.core.pressure import MemoryPressurePolicy
from repro.core.pt_replication import PtReplicationPolicy
from repro.sim.policy import LinuxPolicy, PlacementPolicy, PolicyStack

#: Factories for every policy configuration in the evaluation:
#:
#: ``linux-4k``
#:     Default Linux with THP off — the paper's baseline ("Linux").
#: ``thp``
#:     Linux with transparent huge pages ("THP").
#: ``carrefour-4k``
#:     The original Carrefour on 4KB pages.
#: ``carrefour-2m``
#:     Carrefour run in the THP kernel ("Carrefour-2M").
#: ``carrefour-lp``
#:     Algorithm 1: Carrefour-2M + reactive + conservative.
#: ``reactive-only``
#:     Carrefour-2M plus the reactive component (Figure 4 ablation).
#: ``conservative-only``
#:     4KB Carrefour plus the conservative component (Figure 4 ablation).
#: ``carrefour-lp-lwp``
#:     Carrefour-LP with LWP-style ring-buffered sampling — the fix the
#:     paper proposes for the reactive component's LAR misestimation
#:     (Section 4.1/4.3), implemented here as an extension experiment.
#: ``autonuma`` / ``autonuma-4k``
#:     Linux NUMA balancing (hint-fault migrate-to-accessor) with THP
#:     on/off — the mainline alternative, which cannot split pages.
#: ``interleave-4k`` / ``interleave-thp``
#:     numactl-style round-robin allocation with THP off/on — the
#:     manual remedy that trades locality for balance.
#: ``pt-remote``
#:     THP plus page-table NUMA modelling: remote threads pay
#:     interconnect hops on every TLB-miss walk level (the cost the
#:     other configs implicitly ignore).
#: ``replication``
#:     Mitosis-style page-table replication: same walk modelling, but
#:     the tables are copied to every node on the first interval, making
#:     all walks local again (extension experiment).
#: ``pressure-reclaim``
#:     THP plus watermark-driven memory-pressure response: below the
#:     low free-memory watermark the tenant disables THP allocation and
#:     reclaims batches of its coldest pages back to the (shared)
#:     allocator, re-enabling THP once free memory recovers — the
#:     kswapd-style behaviour colocation scenarios exercise.
POLICIES: Dict[str, Callable[[int], PlacementPolicy]] = {
    "linux-4k": lambda seed: LinuxPolicy(thp=False),
    "thp": lambda seed: LinuxPolicy(thp=True),
    "carrefour-4k": lambda seed: CarrefourPolicy(thp=False, seed=seed),
    "carrefour-2m": lambda seed: CarrefourPolicy(thp=True, seed=seed),
    "carrefour-lp": lambda seed: CarrefourLpPolicy(seed=seed),
    "reactive-only": lambda seed: CarrefourLpPolicy(conservative=False, seed=seed),
    "conservative-only": lambda seed: CarrefourLpPolicy(reactive=False, seed=seed),
    "carrefour-lp-lwp": lambda seed: CarrefourLpPolicy(seed=seed, lwp=True),
    "autonuma": lambda seed: AutoNumaPolicy(thp=True),
    "autonuma-4k": lambda seed: AutoNumaPolicy(thp=False),
    "interleave-4k": lambda seed: LinuxPolicy(thp=False, interleave=True),
    "interleave-thp": lambda seed: LinuxPolicy(thp=True, interleave=True),
    "pt-remote": lambda seed: PtReplicationPolicy(replicate=False),
    "replication": lambda seed: PtReplicationPolicy(replicate=True),
    "pressure-reclaim": lambda seed: MemoryPressurePolicy(thp=True),
}


def _make_single(name: str, seed: int) -> PlacementPolicy:
    try:
        factory = POLICIES[name]
    except KeyError:
        raise UnknownPolicyError.lookup_failed(
            "policy", name, sorted(POLICIES)
        ) from None
    return factory(seed)


def make_policy(name: str, seed: int = 0) -> PlacementPolicy:
    """Instantiate a policy configuration by name.

    ``"a+b"`` composes registry entries into a :class:`PolicyStack`
    running both deciders each interval (e.g.
    ``"carrefour-2m+replication"``); decision conflicts between members
    are resolved first-member-wins by the executor.
    """
    if "+" not in name:
        return _make_single(name, seed)
    parts = [part.strip() for part in name.split("+")]
    if any(not part for part in parts):
        raise ConfigurationError(f"empty member in policy stack {name!r}")
    if len(set(parts)) != len(parts):
        raise ConfigurationError(f"duplicate member in policy stack {name!r}")
    members = [_make_single(part, seed) for part in parts]
    return PolicyStack(members, name=name)


def policy_descriptions() -> Dict[str, str]:
    """One-line description per registry entry, from the docs above.

    Parsed out of this module's ``#:`` block so ``repro policies`` and
    the documentation can never drift apart.
    """
    lines = Path(__file__).read_text(encoding="utf-8").splitlines()
    docs: Dict[str, List[str]] = {}
    current: List[str] = []
    started = False
    for line in lines:
        if not line.startswith("#:"):
            if started:
                break
            continue
        text = line[2:].strip()
        if text.startswith("``"):
            started = True
            names = re.findall(r"``([^`]+)``", text)
            current = [n for n in names if n in POLICIES]
            for n in current:
                docs[n] = []
        elif started and current and text:
            for n in current:
                docs[n].append(text)
    return {
        name: " ".join(docs.get(name, [])) or "(undocumented)"
        for name in POLICIES
    }
