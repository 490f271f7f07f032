"""Per-thread reference implementations of the stream bank's batched paths.

The engine reads each epoch's streams and tracker inputs from a
:class:`~repro.workloads.streambank.StreamBank`: rows drawn once per
bank, tracker columns fused across threads.  This module keeps the
per-thread loops those batched paths must match — each thread's stream
drawn with its own ``(thread, epoch)`` generator, and the access
tracker fed one thread at a time.  The equivalence tests drive both
over the same workloads and require identical results.
"""

from __future__ import annotations

import numpy as np

from repro._util import rng_for
from repro.sim.tracker import AccessTracker
from repro.vm.layout import SHIFT_1G, SHIFT_2M

SIM_SEED = 0


def sequential_rows(instance, epoch, length, sim_seed=SIM_SEED):
    """Every thread's ``(granules, writes, post-draw rng state)``,
    drawn one thread at a time with the engine's own generators."""
    rows = []
    for t in range(instance.n_threads):
        rng = rng_for(sim_seed, instance.seed, instance.name, "stream", t, epoch)
        granules, writes = instance.epoch_stream_with_writes(t, epoch, rng, length)
        rows.append((granules, writes, rng.bit_generator.state))
    return rows


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
