"""Registry of all modelled benchmarks, keyed by the paper's names."""

from __future__ import annotations

from typing import Dict, List

from repro.errors import UnknownWorkloadError
from repro.workloads.base import Workload
from repro.workloads.metis import METIS_WORKLOADS
from repro.workloads.nas import NAS_WORKLOADS
from repro.workloads.parsec import PARSEC_WORKLOADS
from repro.workloads.specjbb import SPECJBB_WORKLOADS
from repro.workloads.ssca import SSCA_WORKLOADS

_ALL: List[Workload] = (
    NAS_WORKLOADS + METIS_WORKLOADS + SSCA_WORKLOADS + SPECJBB_WORKLOADS + PARSEC_WORKLOADS
)

_BY_NAME: Dict[str, Workload] = {w.name: w for w in _ALL}
# Case-insensitive aliases for convenience.
_BY_NAME.update({w.name.lower(): w for w in _ALL})

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


def available_workloads() -> List[str]:
    """All benchmark names, in Figure 1 order plus extras."""
    extras = [w.name for w in _ALL if w.name not in FIGURE1_ORDER]
    return FIGURE1_ORDER + extras


def get_workload(name: str) -> Workload:
    """Look up a benchmark by name (case-insensitive)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        try:
            return _BY_NAME[name.lower()]
        except KeyError:
            raise UnknownWorkloadError.lookup_failed(
                "workload", name, available_workloads()
            ) from None
