"""Registry of all modelled benchmarks, keyed by the paper's names.

The benchmark lists below are plain names; the five suite modules that
model the benchmarks load at the first :func:`get_workload` or
:func:`available_workloads` call, so a run served from the cache never
imports them.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.errors import UnknownWorkloadError

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.base import Workload

#: The order used by Figure 1 of the paper.
FIGURE1_ORDER = [
    "BT.B",
    "CG.D",
    "DC.A",
    "EP.C",
    "FT.C",
    "IS.D",
    "LU.B",
    "MG.D",
    "SP.B",
    "UA.B",
    "UA.C",
    "WC",
    "WR",
    "Kmeans",
    "MatrixMultiply",
    "pca",
    "wrmem",
    "SSCA.20",
    "SPECjbb",
]

#: Applications whose NUMA metrics are affected by THP (Figures 2-4).
AFFECTED_SET = [
    "CG.D",
    "LU.B",
    "UA.B",
    "UA.C",
    "MatrixMultiply",
    "wrmem",
    "SSCA.20",
    "SPECjbb",
]

#: Applications unaffected by THP-induced NUMA issues (Figure 5).
UNAFFECTED_SET = [
    "BT.B",
    "DC.A",
    "EP.C",
    "FT.C",
    "IS.D",
    "MG.D",
    "SP.B",
    "WC",
    "WR",
    "Kmeans",
    "pca",
]


@functools.lru_cache(maxsize=None)
def _catalog() -> Tuple[List[Workload], Dict[str, Workload]]:
    """Every modelled benchmark, and a by-name index that also holds
    each name in lower case; the suite modules load on the first call."""
    from repro.workloads.metis import METIS_WORKLOADS
    from repro.workloads.nas import NAS_WORKLOADS
    from repro.workloads.parsec import PARSEC_WORKLOADS
    from repro.workloads.specjbb import SPECJBB_WORKLOADS
    from repro.workloads.ssca import SSCA_WORKLOADS

    every = (
        NAS_WORKLOADS
        + METIS_WORKLOADS
        + SSCA_WORKLOADS
        + SPECJBB_WORKLOADS
        + PARSEC_WORKLOADS
    )
    by_name = {w.name: w for w in every}
    by_name.update({w.name.lower(): w for w in every})
    return every, by_name


def available_workloads() -> List[str]:
    """All benchmark names, in Figure 1 order plus extras."""
    every, _ = _catalog()
    extras = [w.name for w in every if w.name not in FIGURE1_ORDER]
    return FIGURE1_ORDER + extras


def get_workload(name: str) -> Workload:
    """Look up a benchmark by name (case-insensitive)."""
    _, by_name = _catalog()
    try:
        return by_name[name]
    except KeyError:
        try:
            return by_name[name.lower()]
        except KeyError:
            raise UnknownWorkloadError.lookup_failed(
                "workload", name, available_workloads()
            ) from None
