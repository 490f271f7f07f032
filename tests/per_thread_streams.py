"""Per-thread reference implementations of the batched stream paths.

The engine reads each epoch's streams and tracker inputs from a
:class:`~repro.workloads.streambank.StreamBank`: rows drawn once per
bank straight into its arrays, tracker columns fused across threads,
and IBS samples drawn for every thread in one
:meth:`~repro.hardware.ibs.IbsEngine.record_epoch_batch` call.  This
module keeps the per-thread loops those batched paths must match:

* each thread's stream drawn with its own ``(thread, epoch)``
  generator and assembled on its own — per-region parts in buffers of
  their own, concatenated, or a trace replay's slice read straight off
  the trace;
* the access tracker fed one thread at a time;
* one thread-epoch's IBS samples drawn with that thread's generator.

It also keeps the sharing state the tracker kept before its per-granule
thread bounds (:class:`FirstShared`): per 4KB, 2MB and 1GB page, the
first thread to touch it and whether another did, merged one row at a
time from the row's three page-level summaries (:func:`row_sharing`).

The equivalence tests drive both over the same workloads and require
identical results.
"""

from __future__ import annotations

import numpy as np

from repro._util import rng_for, run_starts
from repro.errors import ConfigurationError
from repro.hardware.ibs import IbsEngine
from repro.sim.tracker import AccessTracker
from repro.vm.layout import SHIFT_1G, SHIFT_2M
from repro.workloads.trace import TraceWorkloadInstance

SIM_SEED = 0


def sequential_rows(instance, epoch, length, sim_seed=SIM_SEED):
    """Every thread's ``(granules, writes, post-draw rng state)``,
    drawn one thread at a time with the engine's own generators."""
    draw = replay_stream if isinstance(instance, TraceWorkloadInstance) else (
        region_stream
    )
    rows = []
    for t in range(instance.n_threads):
        rng = rng_for(sim_seed, instance.seed, instance.name, "stream", t, epoch)
        granules, writes = draw(instance, t, epoch, rng, length)
        rows.append((granules, writes, rng.bit_generator.state))
    return rows


def shipped_stream(instance, thread, epoch, rng, length):
    """One thread-epoch through the shipped ``epoch_stream_into``, into
    fresh zeroed row buffers like a bank row's: ``(granules, writes)``."""
    granules = np.zeros(max(length, 0), dtype=np.int64)
    writes = np.zeros(max(length, 0), dtype=bool)
    n = instance.epoch_stream_into(thread, epoch, rng, length, granules, writes)
    return granules[:n], writes[:n]


def region_stream(instance, thread, epoch, rng, length):
    """One thread-epoch of a region workload, assembled part by part.

    ``length`` accesses split across regions by access share (the
    remainder placed by ``rng.choice`` over the shares), each region's
    part drawn into a buffer of its own with its store mask drawn right
    after it, and the parts concatenated.
    """
    empty = (np.empty(0, dtype=np.int64), np.empty(0, dtype=bool))
    if length <= 0:
        return empty
    total = sum(region.access_share for region in instance.regions)
    shares = np.array([region.access_share / total for region in instance.regions])
    counts = np.floor(shares * length).astype(np.int64)
    deficit = length - int(counts.sum())
    if deficit > 0:
        np.add.at(counts, rng.choice(shares.size, size=deficit, p=shares), 1)
    parts = []
    write_parts = []
    for region, n in zip(instance.regions, counts.tolist()):
        if n <= 0:
            continue
        part = np.empty(n, dtype=np.int64)
        part = part[: region.sample_into(thread, n, epoch, rng, part)]
        if part.size:
            parts.append(part)
            if region.write_fraction <= 0.0:
                write_parts.append(np.zeros(part.size, dtype=bool))
            else:
                write_parts.append(rng.random(part.size) < region.write_fraction)
    if not parts:
        return empty
    return np.concatenate(parts), np.concatenate(write_parts)


def replay_stream(instance, thread, epoch, rng, length):
    """One thread-epoch of a trace replay, read off the flat trace and
    subsampled without replacement, in recorded order, when longer
    than ``length``."""
    trace = instance.trace
    mask = (trace.thread == thread) & (trace.epoch == epoch)
    granules, writes = trace.granule[mask], trace.is_write[mask]
    if granules.size > length:
        idx = np.sort(rng.choice(granules.size, size=length, replace=False))
        granules, writes = granules[idx], writes[idx]
    return granules, writes


def update(
    tracker: AccessTracker, thread: int, granules, weight_per_access: float
) -> None:
    """Record one thread-epoch access stream in ``tracker``."""
    g = np.asarray(granules, dtype=np.int64)
    if g.size == 0:
        return
    unique, counts = np.unique(g, return_counts=True)
    tracker.weight[unique] += counts * weight_per_access
    tracker.tmin[unique] = np.minimum(tracker.tmin[unique], thread)
    tracker.tmax[unique] = np.maximum(tracker.tmax[unique], thread)


#: The page levels the sharing oracle tracks, as granule-id shifts.
LEVELS = {"4k": 0, "2m": SHIFT_2M, "1g": SHIFT_1G}


def row_sharing(keys: np.ndarray, tbits: int) -> tuple:
    """One row's sharing summary ``(ids, first, multi, level_offsets)``
    from its sorted distinct ``(granule << tbits) | thread`` keys.

    Per level, the sorted ids any thread touched, the lowest thread
    touching each, and whether two or more threads did, the levels
    concatenated.  The 4KB pages are the runs of equal granules among
    ``keys``; a coarser page's lowest and highest toucher are the min
    and max of its finer pages'.
    """
    ids = keys >> tbits
    first = last = (keys & ((1 << tbits) - 1)).astype(np.int16)
    level_ids, level_first, level_multi = [], [], []
    for shift in (0, SHIFT_2M, SHIFT_1G - SHIFT_2M):
        ids = ids >> shift
        starts = run_starts(ids)
        ids = ids[starts]
        first = np.minimum.reduceat(first, starts)
        last = np.maximum.reduceat(last, starts)
        level_ids.append(ids)
        level_first.append(first)
        level_multi.append(last > first)
    return (
        np.concatenate(level_ids),
        np.concatenate(level_first),
        np.concatenate(level_multi),
        np.cumsum([0] + [a.size for a in level_ids], dtype=np.int64),
    )


class FirstShared:
    """Per page at each of :data:`LEVELS`, the first thread to touch it
    (-1 while untouched) and whether a second thread did."""

    def __init__(self, n_granules: int) -> None:
        self.first = {
            level: np.full(-(-n_granules >> shift), -1, dtype=np.int16)
            for level, shift in LEVELS.items()
        }
        self.shared = {
            level: np.zeros(first.size, dtype=bool)
            for level, first in self.first.items()
        }

    def merge_epoch_sharing(self, packed) -> None:
        """Fold one row's :func:`row_sharing` summary in, all threads at
        once: a previously untouched id records the row's first toucher
        (and is shared iff several threads hit it this row); a known id
        becomes shared when the row brings any different thread."""
        ids, epoch_first, multi, level_offsets = packed
        for level_index, level in enumerate(LEVELS):
            lo = int(level_offsets[level_index])
            hi = int(level_offsets[level_index + 1])
            if hi <= lo:
                continue
            first, shared = self.first[level], self.shared[level]
            l_ids = ids[lo:hi]
            l_first = epoch_first[lo:hi]
            current = first[l_ids]
            fresh = current < 0
            first[l_ids[fresh]] = l_first[fresh]
            shared[l_ids[multi[lo:hi] | (~fresh & (current != l_first))]] = True


def bank_sharing(bank, n_epochs: int) -> FirstShared:
    """The sharing oracle merged over a bank's rows ``[0, n_epochs)``."""
    oracle = FirstShared(int(bank.instance.n_granules))
    for epoch in range(n_epochs):
        keys, _ = bank._aggregate_row(*bank._ensure_row(epoch))
        oracle.merge_epoch_sharing(row_sharing(keys, bank._tbits))
    return oracle


def record_epoch(
    engine: IbsEngine,
    thread: int,
    accessing_node: int,
    granules,
    home_nodes,
    represented_accesses: float,
    rng: np.random.Generator,
    writes=None,
) -> int:
    """Sample one thread-epoch stream into ``engine``'s node buffer with
    the thread's own generator; returns the number of samples."""
    if not 0 <= accessing_node < engine.n_nodes:
        raise ConfigurationError("accessing_node out of range")
    n_stream = len(granules)
    if n_stream == 0 or represented_accesses <= 0 or engine.rate == 0:
        return 0
    n_samples = int(rng.poisson(engine.rate * represented_accesses))
    if n_samples == 0:
        return 0
    n_samples = min(n_samples, n_stream)
    idx = rng.integers(0, n_stream, size=n_samples)
    engine._stores[accessing_node].append(
        np.asarray(granules, dtype=np.int64)[idx],
        np.asarray(home_nodes, dtype=np.int8)[idx],
        thread,
        accessing_node,
        (
            np.asarray(writes, dtype=bool)[idx]
            if writes is not None
            else np.zeros(n_samples, dtype=bool)
        ),
    )
    engine._collected_since_drain += n_samples
    return n_samples
