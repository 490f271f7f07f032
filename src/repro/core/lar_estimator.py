"""What-if LAR estimation from IBS samples (paper Section 3.2.1).

"Estimating the LAR for various what-if scenarios (e.g., if a page
were migrated or if large pages were split into regular-sized) is
trivial with IBS samples": the samples carry data addresses and the
accessing node, so we can predict the LAR under the Carrefour-2M
placement rule — single-node pages migrated local, shared pages
interleaved to a random node — both at the current backing granularity
and in the hypothetical where every large page is split into 4KB
pages.

The estimate inherits the samples' statistical error.  In particular,
a 4KB sub-page that happened to collect a single sample looks
"single-node" and is predicted fully local; with sparse sampling this
systematically *over*-estimates the post-split LAR, which is exactly
the failure mode the paper reports for SSCA (predicted 59%, actual
25%) and the reason the conservative component exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro._util import run_starts
from repro.errors import ConfigurationError
from repro.hardware.ibs import IbsSamples
from repro.core.metrics import PageSampleTable, node_bits, sample_lar
from repro.vm.address_space import AddressSpace


@dataclass(frozen=True)
class LarEstimate:
    """Current and predicted LARs for one monitoring interval, percent."""

    current: float
    with_carrefour: float
    with_carrefour_and_split: float
    n_samples: int

    @property
    def carrefour_gain(self) -> float:
        """Predicted LAR improvement from Carrefour placement alone."""
        return self.with_carrefour - self.current

    @property
    def split_gain(self) -> float:
        """Predicted LAR improvement from Carrefour plus splitting."""
        return self.with_carrefour_and_split - self.current


def _placement_lar(
    totals: np.ndarray, single: np.ndarray, n_samples: int, n_nodes: int
) -> float:
    """LAR predicted under the Carrefour placement rule, from each
    page's sample count and whether one node took all its samples.

    Single-node pages migrate to that node: all their sampled accesses
    become local.  Shared pages are interleaved to a random node: each
    access is local with probability 1/n_nodes.
    """
    if n_samples == 0:
        return 100.0
    local = float(totals[single].sum())
    local += float(totals[~single].sum()) / n_nodes
    return 100.0 * local / n_samples


def _granule_columns(
    samples: IbsSamples, n_nodes: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Per sampled 4KB granule, in ascending order, its samples as
    ``float64`` and whether one node took them all.

    One in-place sort of packed ``(granule << nbits) | accessing_node``
    keys: a granule is a run of keys equal from bit ``nbits`` up, and
    its nodes the runs of equal keys within it.  These are the
    ``totals`` and ``single_node_mask()`` of the batch's sample table
    grouped by granule, so the estimate sums the same arrays.
    """
    n = len(samples)
    if n == 0:
        return np.empty(0), np.empty(0, dtype=bool)
    nbits = node_bits(samples.accessing_node, n_nodes)
    keys = samples.granule.astype(np.int64)
    keys <<= nbits
    keys |= samples.accessing_node
    keys.sort()
    runs = run_starts(keys)
    granule_runs = run_starts(keys[runs] >> nbits)
    totals = np.diff(runs[granule_runs], append=n).astype(np.float64)
    single = np.diff(granule_runs, append=runs.size) == 1
    return totals, single


def estimate_lar_after_carrefour(
    samples: IbsSamples, address_space: AddressSpace, n_nodes: int
) -> LarEstimate:
    """Full what-if estimate from one interval's samples."""
    if n_nodes <= 0:
        raise ConfigurationError("n_nodes must be positive")
    n = len(samples)
    backing = PageSampleTable.from_samples(samples, address_space, n_nodes)
    return LarEstimate(
        current=sample_lar(samples),
        with_carrefour=_placement_lar(
            backing.totals, backing.single_node_mask(), n, n_nodes
        ),
        with_carrefour_and_split=_placement_lar(
            *_granule_columns(samples, n_nodes), n, n_nodes
        ),
        n_samples=n,
    )
