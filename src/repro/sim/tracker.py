"""Ground-truth access statistics for profiling metrics.

The paper's Table 2 reports PAMUP (percent of accesses to the most
used page), NHP (number of hot pages, >6% of accesses), and PSP
(percent of accesses to pages shared by at least two threads).  These
are *profiling* quantities measured with full visibility; the policies
themselves only ever see IBS samples.

The tracker keeps, per 4KB granule: cumulative (represented) access
weight, the first accessing thread, and a shared flag; the same
first/shared pair is kept per 2MB and per 1GB chunk so sharedness can
be evaluated at whatever granularity a page is currently backed with.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import ConfigurationError
from repro.vm.layout import CHUNKS_2M_PER_1G, GRANULES_PER_2M, SHIFT_1G

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
    """Accumulates per-granule access weight and sharing information."""

    def __init__(self, n_granules: int) -> None:
        if n_granules <= 0:
            raise ConfigurationError("n_granules must be positive")
        self.n_granules = n_granules
        n_chunks = -(-n_granules // GRANULES_PER_2M)
        n_gchunks = -(-n_granules // (1 << SHIFT_1G))
        self.weight = np.zeros(n_granules, dtype=np.float64)
        self._first_4k = np.full(n_granules, -1, dtype=np.int16)
        self._shared_4k = np.zeros(n_granules, dtype=bool)
        self._first_2m = np.full(n_chunks, -1, dtype=np.int16)
        self._shared_2m = np.zeros(n_chunks, dtype=bool)
        self._first_1g = np.full(n_gchunks, -1, dtype=np.int16)
        self._shared_1g = np.zeros(n_gchunks, dtype=bool)

    def add_epoch(self, ids: np.ndarray, scaled_counts: np.ndarray) -> None:
        """Accumulate one whole epoch's access weight in a single call.

        ``ids``/``scaled_counts`` are the columns a stream bank
        aggregates from a row as it folds it
        (:meth:`~repro.workloads.streambank.StreamBank.fold_tracker`):
        every thread's ``np.unique`` ids merged in granule order, the
        threads of one granule in ascending order, with each thread's
        ``weight_per_access`` already multiplied into its counts.
        ``np.add.at`` is unbuffered and applies additions in element
        order — per granule, ascending thread order — so the
        floating-point accumulation sequence per granule is exactly
        that of adding one thread's stream at a time, bit for bit.
        """
        if ids.size == 0:
            return
        np.add.at(self.weight, ids, scaled_counts)

    def merge_epoch_sharing(self, packed) -> None:
        """Fold one epoch's sharing information in, all threads at once.

        ``packed`` is ``(ids, epoch_first, multi, level_offsets)`` —
        the three page levels' sharing summaries concatenated, as a
        stream bank aggregates them from a row as it folds it
        (:meth:`~repro.workloads.streambank.StreamBank.fold_tracker`):
        per level, the sorted distinct ids touched by any thread this
        epoch, the lowest thread id touching each, and whether two or
        more distinct threads touched it.  Produces exactly the
        ``first``/``shared`` state that marking one thread's stream at
        a time, in ascending thread order, would: a previously
        untouched id records the epoch's first toucher (and is shared
        iff several threads hit it this epoch); a known id becomes
        shared when the epoch brings any different thread.
        """
        ids, epoch_first, multi, level_offsets = packed
        for level, (first, shared) in enumerate(
            (
                (self._first_4k, self._shared_4k),
                (self._first_2m, self._shared_2m),
                (self._first_1g, self._shared_1g),
            )
        ):
            lo = int(level_offsets[level])
            hi = int(level_offsets[level + 1])
            if hi <= lo:
                continue
            l_ids = ids[lo:hi]
            l_first = epoch_first[lo:hi]
            l_multi = multi[lo:hi]
            current = first[l_ids]
            fresh = current < 0
            first[l_ids[fresh]] = l_first[fresh]
            shared[l_ids[l_multi | (~fresh & (current != l_first))]] = True

    # ------------------------------------------------------------------
    # Metrics against a backing state
    # ------------------------------------------------------------------
    def hot_page_stats(
        self, address_space: AddressSpace, hot_threshold_pct: float = 6.0
    ) -> HotPageStats:
        """PAMUP / NHP / PSP evaluated at the *current* backing sizes.

        Which pages are 4KB-backed is decided once per 2MB chunk and
        expanded to a ``bool`` per granule; the 4KB maximum and hot
        count are masked reductions over :attr:`weight` itself.  Beyond
        the per-chunk arrays, a call allocates two bytes per granule
        (the mask and the hot flags) and a compacted copy of the shared
        4KB weights.  Every float is summed over the same array as a
        per-granule evaluation sums it — ``total`` over the dense
        weights, each PSP term over its compacted shared weights — so
        the statistics are bit-identical to it.
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
        hot_4k = self.weight > threshold
        hot_4k &= granule_is_4k
        hot = int(np.count_nonzero(hot_4k))
        del hot_4k  # freed before the PSP compaction below
        for w in (chunk_w[chunk_is_huge], gchunk_w[giga]):
            if w.size:
                page_max = max(page_max, float(w.max()))
                hot += int(np.count_nonzero(w > threshold))

        # PSP: accesses to pages shared by >= 2 threads, at backing size.
        shared_weight = 0.0
        if np.any(chunk_is_4k):
            granule_is_4k &= self._shared_4k  # now: 4KB-backed and shared
            shared_weight += float(self.weight[granule_is_4k].sum())
        if np.any(chunk_is_huge):
            shared_weight += float(
                chunk_w[chunk_is_huge & self._shared_2m[:n_chunks]].sum()
            )
        if np.any(giga):
            shared_weight += float(
                gchunk_w[giga & self._shared_1g[: gchunk_w.size]].sum()
            )

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
