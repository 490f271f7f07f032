"""Ground-truth access statistics for profiling metrics.

The paper's Table 2 reports PAMUP (percent of accesses to the most
used page), NHP (number of hot pages, >6% of accesses), and PSP
(percent of accesses to pages shared by at least two threads).  These
are *profiling* quantities measured with full visibility; the policies
themselves only ever see IBS samples.

The tracker keeps, per 4KB granule, the cumulative (represented) access
weight and the lowest and highest thread that ever touched it: 10 bytes
per granule on machines A and B.  A page is shared iff two distinct
threads touched it, that is iff its highest toucher is above its
lowest, and a 2MB or 1GB page's threads are its granules' threads, so
sharedness at whatever size backs a page is the bounds' max over min
across the page, derived when the statistics are computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.vm.layout import CHUNKS_2M_PER_1G, GRANULES_PER_2M

if TYPE_CHECKING:  # pragma: no cover
    from repro.vm.address_space import AddressSpace


@dataclass(frozen=True)
class HotPageStats:
    """PAMUP / NHP / PSP triple plus the backing breakdown."""

    pamup_pct: float
    n_hot_pages: int
    psp_pct: float
    total_weight: float

    def __str__(self) -> str:
        return (
            f"PAMUP={self.pamup_pct:.1f}% NHP={self.n_hot_pages} "
            f"PSP={self.psp_pct:.1f}%"
        )


class AccessTracker:
    """Accumulates per-granule access weight and touching-thread bounds.

    ``tmin``/``tmax`` hold each granule's lowest and highest toucher in
    the narrowest signed type that holds every thread id (``int8`` up
    to 128 threads); an untouched granule reads ``tmin`` at the type's
    maximum and ``tmax`` at -1, so ``tmax > tmin`` is its shared flag.
    """

    def __init__(self, n_granules: int, n_threads: int) -> None:
        if n_granules <= 0:
            raise ConfigurationError("n_granules must be positive")
        if n_threads <= 0:
            raise ConfigurationError("n_threads must be positive")
        self.n_granules = n_granules
        # The narrowest signed type holding -n_threads holds every id
        # in [0, n_threads) and the -1 of an untouched granule.
        dtype = np.min_scalar_type(-n_threads)
        self.weight = np.zeros(n_granules, dtype=np.float64)
        self.tmin = np.full(n_granules, np.iinfo(dtype).max, dtype=dtype)
        self.tmax = np.full(n_granules, -1, dtype=dtype)

    def add_epoch(
        self, granules: np.ndarray, threads: np.ndarray, weights: np.ndarray
    ) -> None:
        """Fold one whole epoch in with a single call.

        The three columns are a stream-bank row's distinct ``(granule,
        thread)`` pairs in ascending order, as the bank aggregates them
        from the row as it folds it
        (:meth:`~repro.workloads.streambank.StreamBank.fold_tracker`),
        with each pair's count times its thread's weight per access.
        ``np.add.at`` is unbuffered and applies additions in element
        order — per granule, ascending thread order — so the
        floating-point accumulation sequence per granule is exactly
        that of adding one thread's stream at a time, bit for bit.
        Every pair's thread widens its granule's bounds through the
        same unbuffered ``minimum``/``maximum``, in the bounds' own
        type (a wider one would take numpy's slow casting path).
        """
        if granules.size == 0:
            return
        np.add.at(self.weight, granules, weights)
        threads = threads.astype(self.tmin.dtype)
        np.minimum.at(self.tmin, granules, threads)
        np.maximum.at(self.tmax, granules, threads)

    # ------------------------------------------------------------------
    # Metrics against a backing state
    # ------------------------------------------------------------------
    def hot_page_stats(
        self, address_space: AddressSpace, hot_threshold_pct: float = 6.0
    ) -> HotPageStats:
        """PAMUP / NHP / PSP evaluated at the *current* backing sizes.

        Which pages are 4KB-backed is decided once per 2MB chunk and
        expanded to a ``bool`` per granule; the 4KB maximum and hot
        count are masked reductions over :attr:`weight` itself.  A
        page is shared iff its highest toucher is above its lowest:
        per granule ``tmax > tmin``, per 2MB and 1GB page the max of
        ``tmax`` over the min of ``tmin`` across it.  Beyond the
        per-chunk arrays, a call allocates two bytes per granule (the
        mask, and one buffer for the hot flags and then the 4KB shared
        flags) and a compacted copy of the shared 4KB weights.  Every
        float is summed over the same array as a per-granule evaluation
        sums it — ``total`` over the dense weights, each PSP term over
        its compacted shared weights — so the statistics are
        bit-identical to it.
        """
        total = float(self.weight.sum())
        if total <= 0:
            return HotPageStats(0.0, 0, 0.0, 0.0)
        chunk_w = _group_sums(self.weight, GRANULES_PER_2M)
        gchunk_w = _group_sums(chunk_w, CHUNKS_2M_PER_1G)
        n_chunks = chunk_w.size

        # Split pages by current backing level, one flag per 2MB chunk.
        giga = address_space.giga[: gchunk_w.size]
        giga_of_chunk = np.repeat(giga, CHUNKS_2M_PER_1G)[:n_chunks]
        huge = address_space.huge[:n_chunks]
        chunk_is_huge = huge & ~giga_of_chunk
        chunk_is_4k = ~huge & ~giga_of_chunk
        granule_is_4k = np.repeat(chunk_is_4k, GRANULES_PER_2M)
        granule_is_4k = granule_is_4k[: self.n_granules]

        # Per-page maxima and hot counts at each level.
        threshold = total * hot_threshold_pct / 100.0
        page_max = float(np.max(self.weight, where=granule_is_4k, initial=0.0))
        flags = self.weight > threshold
        flags &= granule_is_4k
        hot = int(np.count_nonzero(flags))
        for w in (chunk_w[chunk_is_huge], gchunk_w[giga]):
            if w.size:
                page_max = max(page_max, float(w.max()))
                hot += int(np.count_nonzero(w > threshold))

        # PSP: accesses to pages shared by >= 2 threads, at backing size.
        # The hot flags' buffer takes the 4KB pages' shared flags.
        np.greater(self.tmax, self.tmin, out=flags)
        granule_is_4k &= flags  # now: 4KB-backed and shared
        del flags  # freed before the PSP compaction below
        shared_weight = 0.0
        if np.any(chunk_is_4k):
            shared_weight += float(self.weight[granule_is_4k].sum())
        chunk_min, chunk_max = _group_bounds(self.tmin, self.tmax, GRANULES_PER_2M)
        if np.any(chunk_is_huge):
            shared_weight += float(
                chunk_w[chunk_is_huge & (chunk_max > chunk_min)].sum()
            )
        if np.any(giga):
            gchunk_min, gchunk_max = _group_bounds(
                chunk_min, chunk_max, CHUNKS_2M_PER_1G
            )
            shared_weight += float(gchunk_w[giga & (gchunk_max > gchunk_min)].sum())

        return HotPageStats(
            pamup_pct=100.0 * page_max / total,
            n_hot_pages=hot,
            psp_pct=100.0 * shared_weight / total,
            total_weight=total,
        )


def _group_sums(values: np.ndarray, width: int) -> np.ndarray:
    """Sum of each run of ``width`` consecutive values, the last run
    zero-padded; only that last run is copied."""
    n_full = values.size - values.size % width
    sums = values[:n_full].reshape(-1, width).sum(axis=1)
    if n_full == values.size:
        return sums
    last = np.zeros((1, width))
    last[0, : values.size - n_full] = values[n_full:]
    return np.concatenate([sums, last.sum(axis=1)])


def _group_bounds(
    lowest: np.ndarray, highest: np.ndarray, width: int
) -> Tuple[np.ndarray, np.ndarray]:
    """The least of ``lowest`` and the greatest of ``highest`` over each
    run of ``width`` consecutive entries, the last run possibly short:
    the thread bounds of the pages those entries make up."""
    n_full = lowest.size - lowest.size % width
    low = lowest[:n_full].reshape(-1, width).min(axis=1)
    high = highest[:n_full].reshape(-1, width).max(axis=1)
    if n_full < lowest.size:
        low = np.append(low, lowest[n_full:].min())
        high = np.append(high, highest[n_full:].max())
    return low, high
