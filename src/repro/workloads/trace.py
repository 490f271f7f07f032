"""Trace-driven workloads: record, save, load and replay access traces.

The synthetic benchmark models in this package are calibrated to the
paper's published traits, but a downstream user evaluating Carrefour-LP
on *their* application wants to feed in real behaviour.  This module
provides that path:

* :class:`TraceRecorder` captures the per-thread, per-epoch access
  streams (with store flags) of any workload instance, as its stream
  bank serves them to a run, into a :class:`TraceData` object;
* traces round-trip through a compact ``.npz`` file, so they can also
  be produced externally (e.g. from a PIN/DynamoRIO tool or ``perf
  mem`` records binned into 4KB granules and epochs);
* :class:`TraceWorkloadInstance` replays a trace through the simulation
  engine under any placement policy — placement happens via ordinary
  first-touch faulting of the replayed stream.

A replayed trace reproduces the recorded access *pattern* exactly, so
policy comparisons on it are apples-to-apples with the live run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware.topology import NumaTopology
from repro.sim.config import SimConfig
from repro.workloads.base import CostProfile, FaultBatch, TlbGroup, WorkloadInstance
from repro.workloads.streambank import get_stream_bank


@dataclass
class TraceData:
    """A recorded multi-threaded access trace.

    Flat representation: sample ``i`` belongs to ``thread[i]`` during
    ``epoch[i]`` and touched 4KB granule ``granule[i]``;
    ``is_write[i]`` marks stores.  ``cost`` carries the intensity
    constants needed to time the replay.
    """

    n_threads: int
    n_granules: int
    total_epochs: int
    thread: np.ndarray
    epoch: np.ndarray
    granule: np.ndarray
    is_write: np.ndarray
    cost: CostProfile
    tlb_run_length: float = 8.0

    def __post_init__(self) -> None:
        n = len(self.granule)
        for name in ("thread", "epoch", "is_write"):
            if len(getattr(self, name)) != n:
                raise ConfigurationError("trace arrays must have equal length")
        if n and int(self.granule.max()) >= self.n_granules:
            raise ConfigurationError("trace touches granules beyond n_granules")
        if n and int(self.thread.max()) >= self.n_threads:
            raise ConfigurationError("trace references unknown threads")
        if n and int(self.epoch.max()) >= self.total_epochs:
            raise ConfigurationError("trace references epochs beyond total_epochs")

    def __len__(self) -> int:
        return int(len(self.granule))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Write the trace as a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            n_threads=self.n_threads,
            n_granules=self.n_granules,
            total_epochs=self.total_epochs,
            thread=self.thread.astype(np.int16),
            epoch=self.epoch.astype(np.int32),
            granule=self.granule.astype(np.int64),
            is_write=self.is_write.astype(bool),
            cost=np.array(
                [
                    self.cost.cpu_seconds,
                    self.cost.mem_accesses,
                    self.cost.dram_accesses,
                    self.cost.instructions,
                    self.cost.mlp,
                ]
            ),
            tlb_run_length=self.tlb_run_length,
        )

    @classmethod
    def load(cls, path: str) -> "TraceData":
        """Load a trace saved by :meth:`save`."""
        with np.load(path) as data:
            cost_arr = data["cost"]
            return cls(
                n_threads=int(data["n_threads"]),
                n_granules=int(data["n_granules"]),
                total_epochs=int(data["total_epochs"]),
                thread=data["thread"].astype(np.int64),
                epoch=data["epoch"].astype(np.int64),
                granule=data["granule"].astype(np.int64),
                is_write=data["is_write"].astype(bool),
                cost=CostProfile(
                    cpu_seconds=float(cost_arr[0]),
                    mem_accesses=float(cost_arr[1]),
                    dram_accesses=float(cost_arr[2]),
                    instructions=float(cost_arr[3]),
                    mlp=float(cost_arr[4]),
                ),
                tlb_run_length=float(data["tlb_run_length"]),
            )


class TraceRecorder:
    """Records the access streams of a live workload instance."""

    def record(
        self,
        instance: WorkloadInstance,
        stream_length: int = 1024,
        epochs: Optional[int] = None,
    ) -> TraceData:
        """Capture the instance's streams as a run draws them.

        The rows are the instance's stream-bank rows at the default
        simulation seed (``SimConfig().seed``), so the trace holds
        exactly the accesses a run of the instance with that seed and
        ``stream_length`` consumes, over its first ``epochs`` epochs
        (all of them by default).
        """
        if stream_length <= 0:
            raise ConfigurationError("stream_length must be positive")
        total_epochs = instance.total_epochs if epochs is None else epochs
        if total_epochs > instance.total_epochs:
            raise ConfigurationError(
                f"cannot record {total_epochs} epochs of an instance that "
                f"runs {instance.total_epochs}"
            )
        bank = get_stream_bank(instance, SimConfig().seed, stream_length)
        threads, epochs_out, granules, writes = [], [], [], []
        for epoch in range(total_epochs):
            streams, stream_writes, sizes = bank.epoch_arrays(epoch)
            for t, size in enumerate(sizes.tolist()):
                if size == 0:
                    continue
                threads.append(np.full(size, t, dtype=np.int64))
                epochs_out.append(np.full(size, epoch, dtype=np.int64))
                granules.append(streams[t, :size])
                writes.append(stream_writes[t, :size])
        if not granules:
            raise ConfigurationError("the instance produced no accesses")
        run_lengths = [
            grp.run_length for grp in instance.tlb_groups(0, 0) if grp.weight > 0
        ]
        return TraceData(
            n_threads=instance.n_threads,
            n_granules=instance.n_granules,
            total_epochs=total_epochs,
            thread=np.concatenate(threads),
            epoch=np.concatenate(epochs_out),
            granule=np.concatenate(granules),
            is_write=np.concatenate(writes),
            cost=instance.cost,
            tlb_run_length=float(np.mean(run_lengths)) if run_lengths else 8.0,
        )


class TraceWorkloadInstance:
    """Replays a :class:`TraceData` through the simulation engine.

    Implements the engine-facing workload interface.  There is no
    allocation plan: the replayed stream demand-faults memory in, so
    first-touch placement emerges from the trace itself, and every
    placement policy (THP, Carrefour, Carrefour-LP, ...) acts on the
    same accesses the original application made.
    """

    def __init__(
        self, name: str, machine: NumaTopology, trace: TraceData, seed: int = 0
    ) -> None:
        if trace.n_threads > machine.n_cores:
            raise ConfigurationError(
                f"trace has {trace.n_threads} threads but machine only"
                f" {machine.n_cores} cores"
            )
        self.name = name
        self.machine = machine
        self.trace = trace
        self.seed = seed
        self.n_threads = trace.n_threads
        self.n_granules = trace.n_granules
        self.total_epochs = trace.total_epochs
        self.cost = trace.cost
        self.backing_1g = False
        # Index the flat trace by (epoch, thread) once.
        order = np.lexsort((trace.thread, trace.epoch))
        self._granule = trace.granule[order]
        self._write = trace.is_write[order]
        keys = trace.epoch[order] * (trace.n_threads + 1) + trace.thread[order]
        boundaries = np.flatnonzero(np.diff(keys)) + 1
        starts = np.concatenate([[0], boundaries])
        ends = np.concatenate([boundaries, [len(keys)]])
        self._slices: Dict[Tuple[int, int], Tuple[int, int]] = {}
        for s, e in zip(starts, ends):
            epoch = int(keys[s]) // (trace.n_threads + 1)
            thread = int(keys[s]) % (trace.n_threads + 1)
            self._slices[(epoch, thread)] = (int(s), int(e))
        # Per-thread distinct-granule counts for the TLB geometry.
        self._distinct: List[float] = []
        self._extents: List[Tuple[int, int]] = []
        for t in range(trace.n_threads):
            mask = trace.thread == t
            if np.any(mask):
                touched = np.unique(trace.granule[mask])
                self._distinct.append(float(touched.size))
                self._extents.append((int(touched.min()), int(touched.max()) + 1))
            else:
                self._distinct.append(1.0)
                self._extents.append((0, 1))

    # ------------------------------------------------------------------
    # Engine interface
    # ------------------------------------------------------------------
    def premap_epoch(self, epoch, address_space, thread_nodes, thp_alloc,
                     interleave=False) -> FaultBatch:
        """Traces have no allocation plan; faulting happens on access."""
        return FaultBatch.zeros(self.n_threads)

    def epoch_stream_into(
        self,
        thread: int,
        epoch: int,
        rng: np.random.Generator,
        length: int,
        out_granules: np.ndarray,
        out_writes: np.ndarray,
    ) -> int:
        """Replay the recorded stream into the caller's row buffers.

        A recorded stream longer than ``length`` is subsampled without
        replacement, keeping the recorded order.  Returns the stream
        size; entries past it are left untouched.
        """
        span = self._slices.get((epoch, thread))
        if span is None:
            return 0
        s, e = span
        g = self._granule[s:e]
        w = self._write[s:e]
        if g.size > length:
            idx = rng.choice(g.size, size=length, replace=False)
            idx.sort()
            g, w = g[idx], w[idx]
        out_granules[: g.size] = g
        out_writes[: g.size] = w
        return int(g.size)

    def tlb_groups(self, thread: int, epoch: int) -> List[TlbGroup]:
        """Single working-set group estimated from the trace."""
        lo, hi = self._extents[thread]
        distinct = self._distinct[thread]
        return [
            TlbGroup(
                lo=lo,
                hi=hi,
                weight=1.0,
                distinct_4k=distinct,
                distinct_2m=max(1.0, min(distinct, (hi - lo) / 512.0)),
                distinct_1g=max(1.0, min(distinct, (hi - lo) / 262144.0)),
                run_length=self.trace.tlb_run_length,
                sequential=False,
            )
        ]
