"""Epoch-batched, memoized access-stream banks.

Profiling (``BENCH_engine.json``) showed ~74% of cold grid wall-clock
in the ``streams`` phase — per-(thread, epoch) Python-loop stream
generation repeated *per run*, even though the streams themselves are
policy-independent: generation never reads the address space, so a
``linux-4k`` and a ``thp`` run of the same workload on the same machine
draw exactly the same streams.  A :class:`StreamBank` generates each
(epoch, thread) stream once, stores the ``(granules, writes, size)``
rows in preallocated ``(n_threads, length)`` arrays the engine consumes
directly, and serves every run that shares it: banks are keyed by a
fingerprint of everything generation depends on (workload identity and
scalars, the simulation seed, the stream length and the package
version), or by the instance itself for a trace replay.

One slot holds the most recent bank, and each tenant holds its own, so
a bank lives exactly as long as its last run or the slot.  One slot
suffices because runs that share a bank run back to back: the grid
executor orders every grid, serial or pooled, into bank-affine tasks
(:func:`repro.experiments.parallel._bank_tasks`).  A machine-B bank
holds 11 MB at ``--quick`` and 62 MB at full scale, so a process
keeps at most one bank beyond those of its running tenants.

Three fidelity rules keep every bank row bit-identical to drawing each
thread's stream on its own (the per-thread oracle the tests compare
against):

* streams are drawn from the engine's own per-thread generator states
  (those of ``rng_for(sim_seed, instance.seed, instance.name, "stream",
  t, epoch)``, computed for the whole row at once by
  :func:`repro._util.default_rng_states` and loaded in turn into one
  reused generator) through the instance's ``epoch_stream_into``,
  straight into the bank's rows;
* the IBS sampler continues each thread's generator *after* stream
  generation, so the bank captures every generator's
  ``bit_generator.state`` post-generation for the sampler to replay
  through :func:`repro._util.rng_from_state`;
* the engine treats bank arrays as read-only (it keeps its own
  ``stream_homes`` scratch), so one bank serves every run sharing it.

A row keeps only its streams, store masks and RNG states.  The bank
folds the access tracker once for all of its runs
(:meth:`StreamBank.fold_tracker`): the first run to reach an epoch
folds that epoch's row, and each run reads the fold of exactly the
epochs it ran (:meth:`StreamBank.tracker`).  Folding a row aggregates
it with one sort (:meth:`StreamBank._aggregate_row`) into its distinct
``(granule, thread)`` keys with their counts, with which
:meth:`~repro.sim.tracker.AccessTracker.add_epoch` adds to each
granule's access weight and widens its lowest and highest toucher.
The aggregates are dropped once folded.

Lazy fill: a row materializes inside the call that first needs it, so
a short run never generates past what it consumes.

``REPRO_STREAM_CACHE=<dir>`` (see :mod:`repro.options`) persists each
epoch block to disk as its last row fills (``.npy`` columns loaded
back memmapped, each row's aggregates alongside for a loaded block to
fold from), so banks survive across the processes of a grid sweep.
Blocks are filed under the bank's fingerprint, so a version bump
starts an empty store, as it does for the result cache; a block whose
aggregates are in another layout reads as a miss, and is regenerated
and rewritten.  Pool workers
share the store, so every file lands through a temp-file rename and an
``.ok`` marker is written last.
"""

from __future__ import annotations

import json
import os
import tempfile
import zipfile
from collections import OrderedDict
from typing import Dict, List, Optional, Tuple

import numpy as np

import repro
from repro._util import (
    SeedHasher,
    default_rng_states,
    rng_from_state,
    run_starts,
    stable_seed,
)
from repro.options import RuntimeOptions
from repro.sim.tracker import AccessTracker

#: Epochs per storage block.  Blocks are filled lazily epoch by epoch,
#: so a short run never generates past what it consumes; the window
#: only bounds allocation and disk-store granularity.
EPOCH_WINDOW = 16

_MAX_BLOCKS_PER_BANK = 4

#: The arrays of a stored block's ``agg.npz``: every row's
#: :meth:`StreamBank._aggregate_row` keys and counts, concatenated, and
#: the row offsets.  A file without them is of an older layout.
_AGG_KEYS = ("t_keys", "t_counts", "t_row")

#: The slot: the most recently requested bank, if any (see the module
#: docstring).
_SLOT: "List[StreamBank]" = []


def clear_stream_banks() -> None:
    """Empty the bank slot (benchmarks and tests use this to measure or
    exercise cold generation)."""
    _SLOT.clear()


def weight_scale(dram_accesses: float, sizes: np.ndarray) -> np.ndarray:
    """Each thread's weight per access in one epoch: ``dram_accesses /
    size``, zero for a thread that drew nothing.

    The engine scales its traffic bins, and a bank its tracker counts,
    by this one vector, so the tracker's weights are the traffic's.
    """
    scale = np.zeros(sizes.shape[0])
    active = sizes > 0
    scale[active] = dram_accesses / sizes[active]
    return scale


def _offsets(arrays) -> np.ndarray:
    """Where each of ``arrays`` starts in their concatenation, and the
    total size last."""
    return np.cumsum([0] + [a.size for a in arrays], dtype=np.int64)


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
    payload data we cannot cheaply fingerprint, so their banks are keyed
    by the instance itself instead.

    The workload's ``cost.dram_accesses`` is part of the key: the
    bank's tracker fold scales each thread's counts by
    :func:`weight_scale` (``dram_accesses / stream_size``), so two
    instances may only share a bank when they would scale identically.
    So is :data:`repro.__version__`: the disk store files blocks under
    the fingerprint, and streams that older code wrote must not serve
    a newer model.
    """
    regions = getattr(instance, "regions", None)
    if regions is None:
        return None
    cost = getattr(instance, "cost", None)
    parts = (
        repro.__version__,
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
    """The bank for ``(instance, sim_seed, length)``.

    The slot's bank when it matches — by fingerprint (this is what lets
    the policy runs of a grid cell reuse each other's streams), or by
    identity for an unfingerprintable instance — else a new bank, which
    takes the slot.
    """
    fingerprint = bank_fingerprint(instance, sim_seed, length)
    if not (_SLOT and _SLOT[0].serves(instance, sim_seed, length, fingerprint)):
        _SLOT[:] = [
            StreamBank(
                instance,
                sim_seed,
                length,
                fingerprint=fingerprint,
                cache_dir=RuntimeOptions.from_env().stream_cache,
            )
        ]
    return _SLOT[0]


class _Block:
    """Storage for one ``EPOCH_WINDOW``-sized range of epochs."""

    __slots__ = ("epoch0", "n_epochs", "streams", "writes", "sizes",
                 "rng_states", "stored", "filled", "persisted")

    def __init__(self, epoch0: int, n_epochs: int, n_threads: int,
                 length: int) -> None:
        self.epoch0 = epoch0
        self.n_epochs = n_epochs
        self.streams = np.zeros((n_epochs, n_threads, length), dtype=np.int64)
        self.writes = np.zeros((n_epochs, n_threads, length), dtype=bool)
        self.sizes = np.zeros((n_epochs, n_threads), dtype=np.int64)
        self.rng_states: List[Optional[List[dict]]] = [None] * n_epochs
        #: Per-row aggregates (:meth:`StreamBank._aggregate_row`) read
        #: back from the disk store; ``None`` for a generated block.
        self.stored: Optional[List[tuple]] = None
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
        stored: List[tuple],
    ) -> "_Block":
        block = cls.__new__(cls)
        block.epoch0 = epoch0
        block.n_epochs = streams.shape[0]
        block.streams = streams
        block.writes = writes
        block.sizes = sizes
        block.rng_states = list(rng_states)
        block.stored = stored
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
        #: Scales the tracker's counts as the engine scales its traffic
        #: (:func:`weight_scale`).
        self._dram = 0.0 if cost is None else float(cost.dram_accesses)
        #: Bits a thread id takes in a row's packed aggregation keys.
        self._tbits = max(1, (self.n_threads - 1).bit_length())
        #: Prefix-memoized seeder: per-row generators vary only in the
        #: ``(thread, epoch)`` suffix, so the fixed parts hash once.
        self._seed_hasher = SeedHasher(
            sim_seed, instance.seed, instance.name, "stream"
        )
        #: The one generator every row's threads draw from in turn.
        self._rng: Optional[np.random.Generator] = None
        self._dir = (
            os.path.join(cache_dir, fingerprint)
            if cache_dir is not None and fingerprint is not None
            else None
        )
        self._blocks: "OrderedDict[int, _Block]" = OrderedDict()
        #: Access tracker folded over epochs ``[0, _folded)``.
        self._fold: Optional[AccessTracker] = None
        self._folded = 0

    def serves(
        self,
        instance: object,
        sim_seed: int,
        length: int,
        fingerprint: Optional[str],
    ) -> bool:
        """Whether this bank's streams are ``instance``'s, given its
        :func:`bank_fingerprint`."""
        if fingerprint is None:
            return (
                self.instance is instance
                and self.sim_seed == sim_seed
                and self.length == length
            )
        # A stored instance whose regions were re-bound (e.g. via
        # ``with_1g_backing``) after the bank keyed them would no
        # longer fill rows that match the key.
        return self.fingerprint == fingerprint and (
            bank_fingerprint(self.instance, sim_seed, length) == fingerprint
        )

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

    def ibs_states(self, epoch: int) -> List[dict]:
        """Per-thread generator states captured after the stream draws.

        The IBS sampler replays each through
        :func:`repro._util.rng_from_state`, so it draws exactly what the
        thread's generator yields after its stream.  The dicts are
        shared — callers must treat them as read-only.
        """
        block, i = self._ensure_row(epoch)
        return block.rng_states[i]

    def fold_tracker(self, epoch: int) -> None:
        """Fold the tracker rows up to ``epoch`` into the bank's tracker.

        Rows already folded (by any run sharing the bank) are not
        folded again, so each epoch is folded once per bank.
        """
        if self._fold is None:
            self._fold = self._new_tracker()
        if epoch >= self._folded:
            self._fold_rows(self._fold, self._folded, epoch + 1)
            self._folded = epoch + 1

    def tracker(self, n_epochs: int) -> AccessTracker:
        """The access tracker folded over epochs ``[0, n_epochs)``.

        A run that reached as many epochs as the bank has folded reads
        the bank's own tracker (shared: treat it as read-only).  A run
        that stopped earlier, such as a truncated or OOM-killed scenario
        tenant, gets its prefix folded afresh by the same function, which
        aggregates each generated row of the prefix again.
        """
        if self._fold is not None and n_epochs == self._folded:
            return self._fold
        tracker = self._new_tracker()
        self._fold_rows(tracker, 0, n_epochs)
        return tracker

    def _new_tracker(self) -> AccessTracker:
        return AccessTracker(int(self.instance.n_granules), self.n_threads)

    def _fold_rows(self, tracker: AccessTracker, start: int, stop: int) -> None:
        """Fold epochs ``[start, stop)`` into ``tracker``, in order.

        Per epoch, one vectorized call on the row's aggregates (stored
        with a loaded block, else computed by :meth:`_aggregate_row` and
        dropped once folded): each key's granule and thread, with its
        count times its thread's :func:`weight_scale` (the engine's
        traffic scale; the fingerprint pins ``dram_accesses``).
        """
        tmask = (1 << self._tbits) - 1
        for epoch in range(start, stop):
            block, i = self._ensure_row(epoch)
            keys, counts = (
                self._aggregate_row(block, i)
                if block.stored is None
                else block.stored[i]
            )
            threads = keys & tmask
            scale = weight_scale(self._dram, block.sizes[i])
            tracker.add_epoch(keys >> self._tbits, threads, counts * scale[threads])

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
        """Generate one epoch row — streams, store masks and RNG states —
        and persist the block once its last row is in.

        ``filled`` is set only after every column is complete, so a
        failed fill leaves the row to be regenerated (generation is
        deterministic).
        """
        block.rng_states[i] = self._generate_row(block, i)
        block.filled[i] = True
        if (
            self._dir is not None
            and not block.persisted
            and bool(block.filled.all())
        ):
            self._persist(block)

    def _generate_row(self, block: _Block, i: int) -> List[dict]:
        """Draw every thread's stream for one epoch row; returns the
        captured post-generation RNG states.

        The row's start states are computed at once from the threads'
        seeds, and each is loaded into the bank's one generator before
        that thread draws: no generator is built per thread.
        """
        epoch = block.epoch0 + i
        seed = self._seed_hasher.seed
        starts = default_rng_states(
            [seed(t, epoch) for t in range(self.n_threads)]
        )
        states: List[dict] = []
        for t, start in enumerate(starts):
            rng = self._rng = rng_from_state(start, self._rng)
            block.sizes[i, t] = self.instance.epoch_stream_into(
                t, epoch, rng, self.length, block.streams[i, t], block.writes[i, t]
            )
            states.append(rng.bit_generator.state)
        return states

    def _aggregate_row(self, block: _Block, i: int) -> tuple:
        """One filled row's aggregates ``(keys, counts)``, from one sort
        of the row's accesses.

        Each access packs as ``(granule << tbits) | thread``.  Sorted,
        the distinct ``keys`` and their run lengths ``counts`` are every
        thread's ``np.unique(stream, return_counts=True)`` merged in
        granule order, the threads of one granule in ascending order.
        """
        valid = np.arange(self.length) < block.sizes[i][:, None]
        threads = np.arange(self.n_threads, dtype=np.int64)[:, None]
        keys = ((block.streams[i] << self._tbits) | threads)[valid]
        keys.sort()
        starts = run_starts(keys)
        return keys[starts], np.diff(starts, append=keys.size)

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
        """Every row's :meth:`_aggregate_row` output of a completed
        block, concatenated for the disk store (``t_row`` delimits the
        rows)."""
        keys, counts = zip(
            *(self._aggregate_row(block, i) for i in range(block.n_epochs))
        )
        return {
            "t_keys": np.concatenate(keys),
            "t_counts": np.concatenate(counts),
            "t_row": _offsets(keys),
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
        """Load a persisted block memmapped, or ``None`` when it is
        missing or any of its files cannot be read (a truncated or
        emptied file reads as a miss: the block is generated and
        rewritten)."""
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
                agg = {key: stored[key] for key in _AGG_KEYS if key in stored}
        except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
            return None
        n_epochs = max(1, min(EPOCH_WINDOW, self.total_epochs - epoch0))
        if (
            streams.shape != (n_epochs, self.n_threads, self.length)
            or writes.shape != streams.shape
            or sizes.shape != (n_epochs, self.n_threads)
            or len(rng_states) != n_epochs
        ):
            return None
        stored = self._rows_from_agg(agg, sizes, n_epochs)
        if stored is None:
            return None
        return _Block.from_store(epoch0, streams, writes, sizes, rng_states, stored)

    def _rows_from_agg(
        self, agg: Dict[str, np.ndarray], sizes: np.ndarray, n_epochs: int
    ) -> Optional[List[tuple]]:
        """Each row's :meth:`_aggregate_row` output from a stored block,
        or ``None`` when the payload is of another layout or
        inconsistent (a stale store)."""
        try:
            t_keys, t_counts, t_row = (agg[key] for key in _AGG_KEYS)
        except KeyError:
            return None
        if (
            t_row.shape != (n_epochs + 1,)
            or int(t_row[-1]) != t_keys.size
            or t_counts.shape != t_keys.shape
        ):
            return None
        rows: List[tuple] = []
        for i in range(n_epochs):
            lo, hi = int(t_row[i]), int(t_row[i + 1])
            counts = t_counts[lo:hi]
            if int(counts.sum()) != int(sizes[i].sum()):
                return None
            rows.append((t_keys[lo:hi], counts))
        return rows


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
