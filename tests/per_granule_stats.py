"""Per-granule reference implementation of the end-of-run statistics.

:meth:`~repro.sim.tracker.AccessTracker.hot_page_stats` builds its
"backed by 4KB pages" mask once per 2MB chunk and takes the 4KB-level
maximum and hot-page count with masked reductions.  This module keeps
the per-granule form it replaced: two ``int64`` index arrays as long as
the address space map every granule to its 2MB and 1GB chunk, and the
4KB-backed weights are copied out before they are reduced.  Sharing
is read per level off copies of the thread bounds padded to whole pages
(:func:`shared_flags`), where the shipped statistics reduce the full
pages and the short last page apart.  The equivalence tests run both
over the same trackers and address spaces and require every field to
match bit for bit (:func:`stats_bits`).
"""

from __future__ import annotations

import numpy as np

from repro.sim.tracker import HotPageStats
from repro.vm.layout import GRANULES_PER_2M, SHIFT_1G, SHIFT_2M


def stats_bits(stats: HotPageStats) -> tuple:
    """Every field, floats as hex.  Fields are compared rather than the
    objects: dataclass equality compares the class as well."""
    return (
        stats.pamup_pct.hex(),
        stats.n_hot_pages,
        stats.psp_pct.hex(),
        stats.total_weight.hex(),
    )


def chunk_weights(tracker) -> np.ndarray:
    """Access weight per 2MB chunk, from a zero-padded copy of every
    granule's weight."""
    pad = (-tracker.n_granules) % GRANULES_PER_2M
    w = tracker.weight
    if pad:
        w = np.concatenate([w, np.zeros(pad)])
    return w.reshape(-1, GRANULES_PER_2M).sum(axis=1)


def _padded_bounds(low: np.ndarray, high: np.ndarray, width: int):
    """Each page's bounds from copies padded to whole pages with
    untouched entries."""
    pad = (-low.size) % width
    low = np.concatenate([low, np.full(pad, np.iinfo(low.dtype).max, low.dtype)])
    high = np.concatenate([high, np.full(pad, -1, high.dtype)])
    return (
        low.reshape(-1, width).min(axis=1),
        high.reshape(-1, width).max(axis=1),
    )


def shared_flags(tracker) -> dict:
    """Per 4KB granule, 2MB chunk and 1GB chunk: whether two or more
    threads touched it."""
    low2, high2 = _padded_bounds(tracker.tmin, tracker.tmax, GRANULES_PER_2M)
    low1, high1 = _padded_bounds(tracker.tmin, tracker.tmax, 1 << SHIFT_1G)
    return {
        "4k": tracker.tmax > tracker.tmin,
        "2m": high2 > low2,
        "1g": high1 > low1,
    }


def hot_page_stats(
    tracker, address_space, hot_threshold_pct: float = 6.0
) -> HotPageStats:
    """PAMUP / NHP / PSP evaluated at the *current* backing sizes."""
    total = float(tracker.weight.sum())
    if total <= 0:
        return HotPageStats(0.0, 0, 0.0, 0.0)
    chunk_w = chunk_weights(tracker)
    n_chunks = chunk_w.size

    # Split weights by current backing level.
    huge = address_space.huge[:n_chunks]
    c1_of_c2 = np.arange(n_chunks) >> (SHIFT_1G - SHIFT_2M)
    giga_of_chunk = address_space.giga[c1_of_c2]
    chunk_is_huge = huge & ~giga_of_chunk

    # Per-page maxima and hot counts at each level.
    g_of_granule = np.arange(tracker.n_granules) >> SHIFT_2M
    granule_level = (
        ~address_space.huge[g_of_granule]
        & ~address_space.giga[np.arange(tracker.n_granules) >> SHIFT_1G]
    )
    w4 = tracker.weight[granule_level]
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
    shared = shared_flags(tracker)
    shared_weight = 0.0
    if np.any(granule_level):
        shared_weight += float(tracker.weight[granule_level & shared["4k"]].sum())
    if np.any(chunk_is_huge):
        shared_weight += float(chunk_w[chunk_is_huge & shared["2m"]].sum())
    giga_mask = address_space.giga[: gchunk_w.size]
    if np.any(giga_mask):
        shared_weight += float(
            gchunk_w[giga_mask & shared["1g"][: gchunk_w.size]].sum()
        )

    return HotPageStats(
        pamup_pct=100.0 * page_max / total,
        n_hot_pages=hot,
        psp_pct=100.0 * shared_weight / total,
        total_weight=total,
    )
