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

The equivalence tests drive both over the same workloads and require
identical results.
"""

from __future__ import annotations

import numpy as np

from repro._util import rng_for
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
    _mark(tracker._first_4k, tracker._shared_4k, unique, thread)
    _mark(tracker._first_2m, tracker._shared_2m, np.unique(unique >> SHIFT_2M), thread)
    _mark(tracker._first_1g, tracker._shared_1g, np.unique(unique >> SHIFT_1G), thread)


def _mark(first: np.ndarray, shared: np.ndarray, ids: np.ndarray, thread: int) -> None:
    current = first[ids]
    fresh = current < 0
    first[ids[fresh]] = thread
    shared[ids[(~fresh) & (current != thread)]] = True


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
