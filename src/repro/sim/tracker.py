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
from repro.vm.layout import GRANULES_PER_2M, SHIFT_1G, SHIFT_2M

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

        ``ids``/``scaled_counts`` are the fused tracker columns a
        stream bank aggregates from a row as it folds it
        (:meth:`~repro.workloads.streambank.StreamBank.fold_tracker`):
        every thread's ``np.unique`` ids concatenated in ascending
        thread order, with each thread's ``weight_per_access`` already
        multiplied into its counts.  ``np.add.at`` is unbuffered and
        applies additions in element order — ascending thread order,
        with distinct ids inside each thread's segment — so the
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
    def _chunk_weights(self) -> np.ndarray:
        pad = (-self.n_granules) % GRANULES_PER_2M
        w = self.weight
        if pad:
            w = np.concatenate([w, np.zeros(pad)])
        return w.reshape(-1, GRANULES_PER_2M).sum(axis=1)

    def hot_page_stats(
        self, address_space: AddressSpace, hot_threshold_pct: float = 6.0
    ) -> HotPageStats:
        """PAMUP / NHP / PSP evaluated at the *current* backing sizes."""
        total = float(self.weight.sum())
        if total <= 0:
            return HotPageStats(0.0, 0, 0.0, 0.0)
        chunk_w = self._chunk_weights()
        n_chunks = chunk_w.size

        # Split weights by current backing level.
        huge = address_space.huge[:n_chunks]
        c1_of_c2 = np.arange(n_chunks) >> (SHIFT_1G - SHIFT_2M)
        giga_of_chunk = address_space.giga[c1_of_c2]
        chunk_is_huge = huge & ~giga_of_chunk

        # Per-page maxima and hot counts at each level.
        g_of_granule = np.arange(self.n_granules) >> SHIFT_2M
        granule_level = (
            ~address_space.huge[g_of_granule]
            & ~address_space.giga[np.arange(self.n_granules) >> SHIFT_1G]
        )
        w4 = self.weight[granule_level]
        w2 = chunk_w[chunk_is_huge]
        pad1 = (-chunk_w.size) % (1 << (SHIFT_1G - SHIFT_2M))
        cw = np.concatenate([chunk_w, np.zeros(pad1)]) if pad1 else chunk_w
        gchunk_w = cw.reshape(-1, 1 << (SHIFT_1G - SHIFT_2M)).sum(axis=1)
        w1 = gchunk_w[address_space.giga[: gchunk_w.size]]

        page_max = 0.0
        hot = 0
        threshold = total * hot_threshold_pct / 100.0
        for w in (w4, w2, w1):
            if w.size:
                page_max = max(page_max, float(w.max()))
                hot += int(np.count_nonzero(w > threshold))

        # PSP: accesses to pages shared by >= 2 threads, at backing size.
        shared_weight = 0.0
        if np.any(granule_level):
            shared_weight += float(
                self.weight[granule_level & self._shared_4k].sum()
            )
        if np.any(chunk_is_huge):
            shared_weight += float(
                chunk_w[chunk_is_huge & self._shared_2m[:n_chunks]].sum()
            )
        giga_mask = address_space.giga[: gchunk_w.size]
        if np.any(giga_mask):
            shared_weight += float(
                gchunk_w[giga_mask & self._shared_1g[: gchunk_w.size]].sum()
            )

        return HotPageStats(
            pamup_pct=100.0 * page_max / total,
            n_hot_pages=hot,
            psp_pct=100.0 * shared_weight / total,
            total_weight=total,
        )
