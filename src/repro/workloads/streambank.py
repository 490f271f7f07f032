"""Epoch-batched, memoized access-stream banks.

Profiling (``BENCH_engine.json``) showed ~74% of cold grid wall-clock
in the ``streams`` phase — per-(thread, epoch) Python-loop stream
generation repeated *per run*, even though the streams themselves are
policy-independent: generation never reads the address space, so a
``linux-4k`` and a ``thp`` run of the same workload on the same machine
draw exactly the same streams.  A :class:`StreamBank` generates each
(epoch, thread) stream once, stores the ``(granules, writes, size)``
rows in preallocated ``(n_threads, length)`` arrays the engine consumes
directly, and memoizes banks process-wide keyed by a fingerprint of
everything generation depends on: workload identity and scalars, the
simulation seed, and the stream length.

Three fidelity rules keep every bank row bit-identical to drawing each
thread's stream on its own (the per-thread oracle the tests compare
against):

* streams are drawn with the engine's own per-thread generators
  (``rng_for(sim_seed, instance.seed, instance.name, "stream", t,
  epoch)``) through :meth:`WorkloadInstance.epoch_stream_into`, which
  draws in exactly the order of ``epoch_stream_with_writes``;
* the IBS sampler continues each thread's generator *after* stream
  generation, so the bank captures every generator's
  ``bit_generator.state`` post-generation and replays it through
  :func:`repro._util.rng_from_state` on demand;
* the engine treats bank arrays as read-only (it keeps its own
  ``stream_homes`` scratch), so one bank serves every run sharing it.

Fused epoch aggregation: alongside the streams, every epoch row stores
the access tracker's whole-epoch inputs, pre-merged at fill time —

* :meth:`StreamBank.epoch_tracker` — one COO triplet ``(ids,
  thread_offsets, counts)`` of all per-thread ``np.unique`` columns in
  ascending thread order, plus the per-thread weight scaling already
  folded in (``scaled_counts``), so the engine feeds the tracker with
  a single :meth:`~repro.sim.tracker.AccessTracker.add_epoch` call per
  epoch instead of an ``n_threads`` Python loop;
* :meth:`StreamBank.sharing_packed` — the three page-level sharing
  summaries packed into flat ``(ids, first, multi)`` arrays with level
  offsets, consumed whole by
  :meth:`~repro.sim.tracker.AccessTracker.merge_epoch_sharing`.

Lazy fill: a row materializes inside the call that first needs it, so
a short run never generates past what it consumes.

``REPRO_STREAM_CACHE=<dir>`` (see :mod:`repro.options`) persists each
epoch block to disk as its last row fills (``.npy`` columns loaded
back memmapped, fused aggregation columns alongside), so banks survive
across the processes of a grid sweep.  Pool workers share the store,
so every file lands through a temp-file rename and an ``.ok`` marker
is written last.
"""

from __future__ import annotations

import json
import os
import tempfile
import weakref
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro._util import SeedHasher, rng_from_state, stable_seed
from repro.options import RuntimeOptions
from repro.vm.layout import SHIFT_1G, SHIFT_2M

#: Epochs per storage block.  Blocks are filled lazily epoch by epoch,
#: so a short run never generates past what it consumes; the window
#: only bounds allocation and disk-store granularity.
EPOCH_WINDOW = 16

_MAX_BANKS = 12
_MAX_BLOCKS_PER_BANK = 4

_BANKS: "OrderedDict[str, StreamBank]" = OrderedDict()
#: Banks for instances without a stable fingerprint (e.g. trace
#: replays): keyed by identity, garbage-collected with the instance.
_INSTANCE_BANKS: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def clear_stream_banks() -> None:
    """Drop every memoized bank (benchmarks and tests use this to
    measure or exercise cold generation)."""
    _BANKS.clear()
    _INSTANCE_BANKS.clear()


_SCALAR_TYPES = (bool, int, float, str, bytes, type(None))


def _region_signature(region: object) -> tuple:
    """Scalar attributes of a region, in sorted order.

    Every array/list a builtin region holds is derived deterministically
    from these scalars in ``_on_bind``, so the scalars (plus the class
    name) pin the region's sampling behaviour.
    """
    scalars = tuple(
        (key, value)
        for key, value in sorted(vars(region).items())
        if isinstance(value, _SCALAR_TYPES)
    )
    return (type(region).__name__, scalars)


def bank_fingerprint(instance: object, sim_seed: int, length: int) -> Optional[str]:
    """Stable identity of everything stream generation depends on.

    Returns ``None`` for instances without a ``regions`` list (trace
    replays and other duck-typed instances): their streams depend on
    payload data we cannot cheaply fingerprint, so they get per-object
    banks instead of shareable ones.

    The workload's ``cost.dram_accesses`` is part of the key: the
    bank's fused tracker columns bake the per-thread weight scaling
    (``dram_accesses / stream_size``) into ``scaled_counts``, so two
    instances may only share a bank when they would scale identically.
    """
    regions = getattr(instance, "regions", None)
    if regions is None:
        return None
    cost = getattr(instance, "cost", None)
    parts = (
        type(instance).__name__,
        instance.name,
        instance.seed,
        sim_seed,
        length,
        instance.n_threads,
        instance.n_granules,
        instance.backing_1g,
        instance.total_epochs,
        None if cost is None else float(cost.dram_accesses),
        tuple(_region_signature(region) for region in regions),
    )
    return f"{stable_seed(*parts):016x}"


def get_stream_bank(instance: object, sim_seed: int, length: int) -> "StreamBank":
    """The process-wide bank for ``(instance, sim_seed, length)``.

    Fingerprinted instances share one bank per fingerprint (this is
    what lets the two policy runs of a grid cell reuse each other's
    streams); unfingerprintable instances get a bank tied to the object
    itself.
    """
    fingerprint = bank_fingerprint(instance, sim_seed, length)
    if fingerprint is None:
        per_instance = _INSTANCE_BANKS.get(instance)
        if per_instance is None:
            per_instance = {}
            _INSTANCE_BANKS[instance] = per_instance
        bank = per_instance.get((sim_seed, length))
        if bank is None:
            bank = StreamBank(instance, sim_seed, length)
            per_instance[(sim_seed, length)] = bank
        return bank
    bank = _BANKS.get(fingerprint)
    if bank is not None and (
        bank_fingerprint(bank.instance, sim_seed, length) != fingerprint
    ):
        # The stored instance's regions were re-bound (e.g. via
        # ``with_1g_backing``) after the bank memoized them; its
        # future fills would no longer match the key.  Rebuild.
        bank = None
    if bank is None:
        bank = StreamBank(
            instance,
            sim_seed,
            length,
            fingerprint=fingerprint,
            cache_dir=RuntimeOptions.from_env().stream_cache,
        )
        _BANKS[fingerprint] = bank
        while len(_BANKS) > _MAX_BANKS:
            _BANKS.popitem(last=False)
    else:
        _BANKS.move_to_end(fingerprint)
    return bank


class _Block:
    """Storage for one ``EPOCH_WINDOW``-sized range of epochs."""

    __slots__ = ("epoch0", "n_epochs", "streams", "writes", "sizes",
                 "rng_states", "tracker", "sharing", "filled", "persisted")

    def __init__(self, epoch0: int, n_epochs: int, n_threads: int,
                 length: int) -> None:
        self.epoch0 = epoch0
        self.n_epochs = n_epochs
        self.streams = np.zeros((n_epochs, n_threads, length), dtype=np.int64)
        self.writes = np.zeros((n_epochs, n_threads, length), dtype=bool)
        self.sizes = np.zeros((n_epochs, n_threads), dtype=np.int64)
        self.rng_states: List[Optional[List[dict]]] = [None] * n_epochs
        #: Per-row fused tracker columns: ``(ids, thread_offsets,
        #: counts, scaled_counts)``.
        self.tracker: List[Optional[tuple]] = [None] * n_epochs
        #: Per-row packed sharing summary: ``(ids, first, multi,
        #: level_offsets)`` over the three page levels.
        self.sharing: List[Optional[tuple]] = [None] * n_epochs
        self.filled = np.zeros(n_epochs, dtype=bool)
        self.persisted = False

    @classmethod
    def from_store(
        cls,
        epoch0: int,
        streams: np.ndarray,
        writes: np.ndarray,
        sizes: np.ndarray,
        rng_states: List[List[dict]],
        tracker: List[tuple],
        sharing: List[tuple],
    ) -> "_Block":
        block = cls.__new__(cls)
        block.epoch0 = epoch0
        block.n_epochs = streams.shape[0]
        block.streams = streams
        block.writes = writes
        block.sizes = sizes
        block.rng_states = list(rng_states)
        block.tracker = list(tracker)
        block.sharing = list(sharing)
        block.filled = np.ones(block.n_epochs, dtype=bool)
        block.persisted = True
        return block


class StreamBank:
    """Memoized per-epoch access streams for one workload instance."""

    def __init__(
        self,
        instance: object,
        sim_seed: int,
        length: int,
        fingerprint: Optional[str] = None,
        cache_dir: Optional[str] = None,
    ) -> None:
        self.instance = instance
        self.sim_seed = sim_seed
        self.length = length
        self.n_threads = int(instance.n_threads)
        self.total_epochs = int(instance.total_epochs)
        self.fingerprint = fingerprint
        cost = getattr(instance, "cost", None)
        #: Baked into ``scaled_counts`` exactly as the engine computes
        #: its per-thread scale (``dram_accesses / stream_size``).
        self._dram = 0.0 if cost is None else float(cost.dram_accesses)
        #: Prefix-memoized seeder: per-row generators vary only in the
        #: ``(thread, epoch)`` suffix, so the fixed parts hash once.
        self._seed_hasher = SeedHasher(
            sim_seed, instance.seed, instance.name, "stream"
        )
        self._dir = (
            os.path.join(cache_dir, fingerprint)
            if cache_dir is not None and fingerprint is not None
            else None
        )
        self._blocks: "OrderedDict[int, _Block]" = OrderedDict()

    # ------------------------------------------------------------------
    # Engine-facing API
    # ------------------------------------------------------------------
    def epoch_arrays(
        self, epoch: int
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(streams, writes, sizes)`` views for one epoch.

        Shapes ``(n_threads, length)``, ``(n_threads, length)`` and
        ``(n_threads,)``; rows past each thread's size are zero.  The
        arrays are shared — callers must treat them as read-only.
        """
        block, i = self._ensure_row(epoch)
        return (block.streams[i], block.writes[i], block.sizes[i])

    def ibs_rngs(self, epoch: int) -> List[np.random.Generator]:
        """Fresh per-thread generators positioned after stream draws.

        Each call rebuilds the generators from the captured states, so
        every run's IBS sampler consumes its own copies and draws
        exactly what each thread's generator yields after its stream.
        """
        block, i = self._ensure_row(epoch)
        return [rng_from_state(state) for state in block.rng_states[i]]

    def epoch_tracker(self, epoch: int) -> tuple:
        """Fused tracker columns ``(ids, thread_offsets, counts,
        scaled_counts)`` for one epoch.

        ``ids``/``counts`` are every thread's ``np.unique(stream,
        return_counts=True)`` concatenated in ascending thread order
        (``thread_offsets`` has ``n_threads + 1`` entries delimiting
        the segments); ``scaled_counts`` is ``counts`` with each
        thread's weight scale (``dram_accesses / stream_size``, zero
        for idle threads) already multiplied in.  Feeding ``(ids,
        scaled_counts)`` to
        :meth:`~repro.sim.tracker.AccessTracker.add_epoch` is
        bit-identical to adding each thread's ``counts * scale`` in
        turn: ``np.add.at`` applies additions in element order, which
        is exactly ascending thread order, and each thread's segment
        holds distinct ids.
        """
        block, i = self._ensure_row(epoch)
        return block.tracker[i]

    def sharing_packed(self, epoch: int) -> tuple:
        """Packed epoch sharing summary ``(ids, first, multi,
        level_offsets)``.

        The three page levels (4KB granule, 2MB chunk, 1GB chunk) are
        concatenated; ``level_offsets`` (4 entries) delimits them.  Per
        level: the sorted distinct ids touched by *any* thread this
        epoch, the lowest thread id touching each, and whether two or
        more distinct threads touched it.  Consumed whole by
        :meth:`~repro.sim.tracker.AccessTracker.merge_epoch_sharing`;
        policy-independent, so runs sharing a bank pay the aggregation
        once, at fill time.
        """
        block, i = self._ensure_row(epoch)
        return block.sharing[i]

    # ------------------------------------------------------------------
    # Row materialization (lazy fill)
    # ------------------------------------------------------------------
    def _ensure_row(self, epoch: int) -> Tuple[_Block, int]:
        """The (block, row-index) holding ``epoch``, filled."""
        block = self._block_at(epoch)
        i = epoch - block.epoch0
        if not block.filled[i]:
            self._fill_row(block, i)
        return block, i

    def _block_at(self, epoch: int) -> _Block:
        """Locate/create/load the block holding ``epoch``."""
        epoch0 = (epoch // EPOCH_WINDOW) * EPOCH_WINDOW
        block = self._blocks.get(epoch0)
        if block is None:
            block = self._load(epoch0)
            if block is None:
                n_epochs = max(1, min(EPOCH_WINDOW, self.total_epochs - epoch0))
                block = _Block(epoch0, n_epochs, self.n_threads, self.length)
            self._blocks[epoch0] = block
            while len(self._blocks) > _MAX_BLOCKS_PER_BANK:
                self._blocks.popitem(last=False)
        else:
            self._blocks.move_to_end(epoch0)
        return block

    def _fill_row(self, block: _Block, i: int) -> None:
        """Generate one epoch row — streams, RNG states, fused tracker
        and sharing columns — and persist the block once its last row
        is in.

        ``filled`` is set only after every column is complete, so a
        failed fill leaves the row to be regenerated (generation is
        deterministic).
        """
        block.rng_states[i] = self._generate_row(block, i)
        tracker = self._aggregate_tracker(block, i)
        block.tracker[i] = tracker
        block.sharing[i] = self._aggregate_sharing(tracker[0], tracker[1])
        block.filled[i] = True
        if (
            self._dir is not None
            and not block.persisted
            and bool(block.filled.all())
        ):
            self._persist(block)

    def _generate_row(self, block: _Block, i: int) -> List[dict]:
        """Draw every thread's stream for one epoch row; returns the
        captured post-generation RNG states."""
        epoch = block.epoch0 + i
        instance = self.instance
        into = getattr(instance, "epoch_stream_into", None)
        states: List[dict] = []
        for t in range(self.n_threads):
            rng = self._seed_hasher.rng_for(t, epoch)
            if into is not None:
                n = into(
                    t, epoch, rng, self.length,
                    block.streams[i, t], block.writes[i, t],
                )
            else:
                granules, writes = instance.epoch_stream_with_writes(
                    t, epoch, rng, self.length
                )
                n = int(granules.size)
                if n:
                    block.streams[i, t, :n] = granules
                    block.writes[i, t, :n] = writes
            block.sizes[i, t] = n
            states.append(rng.bit_generator.state)
        return states

    def _aggregate_tracker(self, block: _Block, i: int) -> tuple:
        """Fused tracker columns for one generated row.

        Full rows (every thread drew exactly ``length`` accesses — all
        builtin region workloads) take a vectorized path: one row-wise
        sort plus a neighbour-diff keep mask computes every thread's
        ``np.unique(..., return_counts=True)`` at once (identical
        values — sorting and run-length counting are exact integer
        operations).  Ragged rows (trace replays) fall back to
        per-thread ``np.unique``.
        """
        sizes = block.sizes[i]
        n_threads = self.n_threads
        length = self.length
        if length > 0 and bool((sizes == length).all()):
            srt = np.sort(block.streams[i], axis=1)
            keep = np.empty((n_threads, length), dtype=bool)
            keep[:, 0] = True
            np.not_equal(srt[:, 1:], srt[:, :-1], out=keep[:, 1:])
            starts = np.flatnonzero(keep.reshape(-1))
            ids = srt.reshape(-1)[starts]
            counts = np.diff(np.append(starts, n_threads * length))
            offsets = np.zeros(n_threads + 1, dtype=np.int64)
            np.cumsum(keep.sum(axis=1), out=offsets[1:])
        else:
            ids_list: List[np.ndarray] = []
            counts_list: List[np.ndarray] = []
            offsets = np.zeros(n_threads + 1, dtype=np.int64)
            for t in range(n_threads):
                n = int(sizes[t])
                unique, counts_t = np.unique(
                    block.streams[i, t, :n], return_counts=True
                )
                ids_list.append(unique)
                counts_list.append(counts_t)
                offsets[t + 1] = offsets[t] + unique.size
            ids = (
                np.concatenate(ids_list)
                if ids_list else np.empty(0, dtype=np.int64)
            )
            counts = (
                np.concatenate(counts_list)
                if counts_list else np.empty(0, dtype=np.int64)
            )
        scaled = self._scaled_counts(sizes, offsets, counts)
        return (ids, offsets, counts, scaled)

    def _scaled_counts(
        self, sizes: np.ndarray, offsets: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """``counts`` with each thread's weight scale multiplied in.

        The scale vector is computed exactly as the engine's:
        ``dram_accesses / stream_size`` per active thread, zero for
        idle ones; each element of a thread's segment is multiplied by
        the same float64, so the products match the per-thread
        ``counts * weight_per_access`` bitwise.
        """
        scale = np.zeros(self.n_threads)
        active = sizes > 0
        scale[active] = self._dram / sizes[active]
        return counts * np.repeat(scale, np.diff(offsets))

    def _aggregate_sharing(
        self, ids: np.ndarray, offsets: np.ndarray
    ) -> tuple:
        """Packed three-level sharing summary from fused tracker ids.

        Only the 4KB level sorts: per-thread id segments are unique
        within each segment, so packing ``(id << tbits) | thread`` into
        one int64 key and sorting it is the stable by-id merge (equal
        ids order by thread; no two keys tie).  Each id run then yields
        its lowest (``first``) and highest (``last``) toucher, and a
        run of length >= 2 means >= 2 distinct threads (``multi``).

        The coarser levels never re-sort: a 2MB chunk's touching-thread
        set is the union over its 4KB granules, so its lowest toucher
        is the min of per-granule ``first``, its highest the max of
        per-granule ``last``, and it is multi-touched iff max > min —
        all segment reductions (``reduceat``) over the already-sorted
        granule runs.  1GB folds from 2MB the same way.
        """
        level_ids: List[np.ndarray] = []
        level_first: List[np.ndarray] = []
        level_multi: List[np.ndarray] = []
        if ids.size:
            seg_threads = np.repeat(
                np.arange(self.n_threads, dtype=np.int64), np.diff(offsets)
            )
            tbits = max(1, (self.n_threads - 1).bit_length())
            key = (ids << tbits) | seg_threads
            key.sort()
            lvl_ids = key >> tbits
            lvl_threads = (key & ((1 << tbits) - 1)).astype(np.int16)
            keep = np.empty(lvl_ids.size, dtype=bool)
            keep[0] = True
            np.not_equal(lvl_ids[1:], lvl_ids[:-1], out=keep[1:])
            starts = np.flatnonzero(keep)
            ends = np.empty_like(starts)
            ends[:-1] = starts[1:] - 1
            ends[-1] = lvl_ids.size - 1
            lvl_ids = lvl_ids[starts]
            lvl_first = lvl_threads[starts]
            lvl_last = lvl_threads[ends]
            for shift in (0, SHIFT_2M, SHIFT_1G - SHIFT_2M):
                if shift:
                    shifted = lvl_ids >> shift
                    keep = np.empty(shifted.size, dtype=bool)
                    keep[0] = True
                    np.not_equal(shifted[1:], shifted[:-1], out=keep[1:])
                    starts = np.flatnonzero(keep)
                    lvl_ids = shifted[starts]
                    lvl_first = np.minimum.reduceat(lvl_first, starts)
                    lvl_last = np.maximum.reduceat(lvl_last, starts)
                level_ids.append(lvl_ids)
                level_first.append(lvl_first)
                level_multi.append(lvl_last > lvl_first)
        else:
            for _ in range(3):
                level_ids.append(np.empty(0, dtype=np.int64))
                level_first.append(np.empty(0, dtype=np.int16))
                level_multi.append(np.empty(0, dtype=bool))
        level_offsets = np.zeros(4, dtype=np.int64)
        np.cumsum([a.size for a in level_ids], out=level_offsets[1:])
        return (
            np.concatenate(level_ids),
            np.concatenate(level_first),
            np.concatenate(level_multi),
            level_offsets,
        )

    # ------------------------------------------------------------------
    # Optional on-disk store (REPRO_STREAM_CACHE)
    # ------------------------------------------------------------------
    def _paths(self, epoch0: int) -> Dict[str, str]:
        base = os.path.join(self._dir, f"b{epoch0}")
        return {
            "streams": base + ".streams.npy",
            "writes": base + ".writes.npy",
            "sizes": base + ".sizes.npy",
            "rng": base + ".rng.json",
            "agg": base + ".agg.npz",
            "ok": base + ".ok",
        }

    def _agg_payload(self, block: _Block) -> Dict[str, np.ndarray]:
        """Flatten a completed block's fused aggregation columns for
        the disk store (``scaled_counts`` is derived, recomputed on
        load)."""
        n_threads = self.n_threads
        t_row = np.zeros(block.n_epochs + 1, dtype=np.int64)
        t_off = np.zeros((block.n_epochs, n_threads + 1), dtype=np.int64)
        s_row = np.zeros(block.n_epochs + 1, dtype=np.int64)
        s_lvl = np.zeros((block.n_epochs, 4), dtype=np.int64)
        t_ids: List[np.ndarray] = []
        t_counts: List[np.ndarray] = []
        s_ids: List[np.ndarray] = []
        s_first: List[np.ndarray] = []
        s_multi: List[np.ndarray] = []
        for i in range(block.n_epochs):
            ids, offsets, counts, _ = block.tracker[i]
            t_ids.append(ids)
            t_counts.append(counts)
            t_off[i] = offsets
            t_row[i + 1] = t_row[i] + ids.size
            p_ids, p_first, p_multi, lvl = block.sharing[i]
            s_ids.append(p_ids)
            s_first.append(p_first)
            s_multi.append(p_multi)
            s_row[i + 1] = s_row[i] + p_ids.size
            s_lvl[i] = lvl
        return {
            "t_ids": np.concatenate(t_ids),
            "t_counts": np.concatenate(t_counts),
            "t_row": t_row,
            "t_off": t_off,
            "s_ids": np.concatenate(s_ids),
            "s_first": np.concatenate(s_first),
            "s_multi": np.concatenate(s_multi),
            "s_row": s_row,
            "s_lvl": s_lvl,
        }

    def _persist(self, block: _Block) -> None:
        """Best-effort write of a completed block (atomic per file; the
        ``.ok`` marker lands last so readers never see partial blocks)."""
        paths = self._paths(block.epoch0)
        agg = self._agg_payload(block)
        try:
            os.makedirs(self._dir, exist_ok=True)
            for key, array in (
                ("streams", block.streams),
                ("writes", block.writes),
                ("sizes", block.sizes),
            ):
                _atomic_write(
                    paths[key], self._dir,
                    lambda fh, a=array: np.save(fh, a),
                )
            _atomic_write(
                paths["agg"], self._dir,
                lambda fh: np.savez(fh, **agg),
            )
            _atomic_write(
                paths["rng"], self._dir,
                lambda fh: fh.write(
                    json.dumps(block.rng_states).encode("ascii")
                ),
            )
            _atomic_write(paths["ok"], self._dir, lambda fh: fh.write(b"ok"))
            block.persisted = True
        except OSError:
            pass

    def _load(self, epoch0: int) -> Optional[_Block]:
        """Load a persisted block memmapped, or ``None``."""
        if self._dir is None:
            return None
        paths = self._paths(epoch0)
        if not os.path.exists(paths["ok"]):
            return None
        try:
            streams = np.load(paths["streams"], mmap_mode="r")
            writes = np.load(paths["writes"], mmap_mode="r")
            sizes = np.load(paths["sizes"])
            with open(paths["rng"], "r", encoding="ascii") as fh:
                rng_states = json.load(fh)
            with np.load(paths["agg"]) as stored:
                agg = {key: stored[key] for key in stored.files}
        except (OSError, ValueError, KeyError):
            return None
        n_epochs = max(1, min(EPOCH_WINDOW, self.total_epochs - epoch0))
        if (
            streams.shape != (n_epochs, self.n_threads, self.length)
            or writes.shape != streams.shape
            or sizes.shape != (n_epochs, self.n_threads)
            or len(rng_states) != n_epochs
        ):
            return None
        rows = self._rows_from_agg(agg, sizes, n_epochs)
        if rows is None:
            return None
        tracker, sharing = rows
        return _Block.from_store(
            epoch0, streams, writes, sizes, rng_states, tracker, sharing
        )

    def _rows_from_agg(
        self, agg: Dict[str, np.ndarray], sizes: np.ndarray, n_epochs: int
    ) -> Optional[Tuple[List[tuple], List[tuple]]]:
        """Rebuild per-row fused columns from a stored block, or
        ``None`` when the payload is inconsistent (stale store)."""
        try:
            t_ids, t_counts = agg["t_ids"], agg["t_counts"]
            t_row, t_off = agg["t_row"], agg["t_off"]
            s_ids, s_first = agg["s_ids"], agg["s_first"]
            s_multi, s_row, s_lvl = agg["s_multi"], agg["s_row"], agg["s_lvl"]
        except KeyError:
            return None
        if (
            t_row.shape != (n_epochs + 1,)
            or t_off.shape != (n_epochs, self.n_threads + 1)
            or s_row.shape != (n_epochs + 1,)
            or s_lvl.shape != (n_epochs, 4)
            or int(t_row[-1]) != t_ids.size
            or t_counts.shape != t_ids.shape
            or int(s_row[-1]) != s_ids.size
            or s_first.shape != s_ids.shape
            or s_multi.shape != s_ids.shape
        ):
            return None
        tracker: List[tuple] = []
        sharing: List[tuple] = []
        for i in range(n_epochs):
            ids = t_ids[int(t_row[i]):int(t_row[i + 1])]
            counts = t_counts[int(t_row[i]):int(t_row[i + 1])]
            offsets = t_off[i]
            if int(offsets[-1]) != ids.size:
                return None
            scaled = self._scaled_counts(sizes[i], offsets, counts)
            tracker.append((ids, offsets, counts, scaled))
            lo, hi = int(s_row[i]), int(s_row[i + 1])
            lvl = s_lvl[i]
            if int(lvl[-1]) != hi - lo:
                return None
            sharing.append(
                (s_ids[lo:hi], s_first[lo:hi], s_multi[lo:hi], lvl)
            )
        return tracker, sharing


def _atomic_write(path: str, directory: str, write) -> None:
    """Write via a temp file + rename so readers never see partials."""
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
