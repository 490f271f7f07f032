"""Instruction-based-sampling (IBS) style memory-access sampler.

AMD's IBS tags a random subset of instructions and reports, for memory
operations, the data address and whether the access was serviced from
local or remote DRAM.  Carrefour and Carrefour-LP are entirely driven
by these samples.

We sample the simulated DRAM-access streams honestly: every epoch, each
thread contributes ``rate x represented_accesses`` samples drawn
uniformly from its access stream.  Because the number of samples per
page is finite, the policy's estimates carry real sampling error — this
is what reproduces the paper's observation (Section 4.1) that the
reactive component sometimes *misestimates* the post-split LAR (e.g.
predicting 59% for SSCA when the true value is 25%).

Samples are kept in per-node buffers, mirroring the paper's scalability
fix (Section 4.3): the original centralised sample store serialised all
nodes on one lock.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro._util import rng_from_state
from repro.errors import ConfigurationError


@dataclass
class IbsSamples:
    """A batch of IBS samples as parallel arrays.

    Attributes
    ----------
    granule:
        4KB-granule index of the sampled data address.
    accessing_node:
        NUMA node of the core that executed the sampled access.
    home_node:
        NUMA node whose DRAM serviced the access.
    thread:
        Simulated thread id that executed the access.
    from_dram:
        Whether the access was serviced from DRAM (the policies ignore
        pages with no DRAM-serviced samples; our sampler observes the
        DRAM stream so this is always true, but the field is kept for
        API fidelity with real IBS records).
    """

    granule: np.ndarray
    accessing_node: np.ndarray
    home_node: np.ndarray
    thread: np.ndarray
    from_dram: np.ndarray
    #: Whether the sampled access was a store (used by the replication
    #: logic: only never-written pages are safe to replicate).
    is_write: np.ndarray = None
    #: Page tables already grouped from this batch, shared read-only
    #: (see :meth:`repro.core.metrics.PageSampleTable.from_samples`).
    tables: Dict[tuple, object] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        n = len(self.granule)
        if self.is_write is None:
            self.is_write = np.zeros(n, dtype=bool)
        for name in ("accessing_node", "home_node", "thread", "from_dram", "is_write"):
            if len(getattr(self, name)) != n:
                raise ConfigurationError("IBS sample arrays must have equal length")

    def __len__(self) -> int:
        return int(len(self.granule))

    @classmethod
    def empty(cls) -> "IbsSamples":
        """A zero-length batch."""
        return cls(
            granule=np.empty(0, dtype=np.int64),
            accessing_node=np.empty(0, dtype=np.int8),
            home_node=np.empty(0, dtype=np.int8),
            thread=np.empty(0, dtype=np.int16),
            from_dram=np.empty(0, dtype=bool),
            is_write=np.empty(0, dtype=bool),
        )

    @classmethod
    def concatenate(cls, batches: Sequence["IbsSamples"]) -> "IbsSamples":
        """Concatenate batches into one."""
        batches = [b for b in batches if len(b)]
        if not batches:
            return cls.empty()
        return cls(
            granule=np.concatenate([b.granule for b in batches]),
            accessing_node=np.concatenate([b.accessing_node for b in batches]),
            home_node=np.concatenate([b.home_node for b in batches]),
            thread=np.concatenate([b.thread for b in batches]),
            from_dram=np.concatenate([b.from_dram for b in batches]),
            is_write=np.concatenate([b.is_write for b in batches]),
        )


class _SampleStore:
    """Columnar, amortised-growth sample store for one node.

    Replaces the old list-of-batches buffer: per-epoch appends land in
    preallocated arrays (capacity doubling), so a drain takes one slice
    per column instead of concatenating hundreds of tiny per-thread
    batches.  Append order is preserved, keeping drained sample order
    identical to the list-based implementation.
    """

    _INITIAL_CAPACITY = 256
    _COLUMNS = (
        ("granule", np.int64),
        ("accessing_node", np.int8),
        ("home_node", np.int8),
        ("thread", np.int16),
        ("is_write", bool),
    )

    def __init__(self) -> None:
        self._capacity = 0
        self._length = 0
        for name, _ in self._COLUMNS:
            setattr(self, "_" + name, None)

    def __len__(self) -> int:
        return self._length

    def _reserve(self, extra: int) -> None:
        need = self._length + extra
        if need <= self._capacity:
            return
        capacity = max(self._INITIAL_CAPACITY, self._capacity)
        while capacity < need:
            capacity *= 2
        for name, dtype in self._COLUMNS:
            attr = "_" + name
            old = getattr(self, attr)
            grown = np.empty(capacity, dtype=dtype)
            if old is not None and self._length:
                grown[: self._length] = old[: self._length]
            setattr(self, attr, grown)
        self._capacity = capacity

    def append(
        self,
        granule: np.ndarray,
        home_node: np.ndarray,
        thread: int,
        accessing_node: int,
        is_write: np.ndarray,
    ) -> None:
        n = len(granule)
        if n == 0:
            return
        self._reserve(n)
        lo, hi = self._length, self._length + n
        self._granule[lo:hi] = granule
        self._home_node[lo:hi] = home_node
        self._thread[lo:hi] = thread
        self._accessing_node[lo:hi] = accessing_node
        self._is_write[lo:hi] = is_write
        self._length = hi

    def drain(self) -> Optional[IbsSamples]:
        """Pop all stored samples as one batch (None when empty)."""
        if self._length == 0:
            return None
        n = self._length
        batch = IbsSamples(
            granule=self._granule[:n].copy(),
            accessing_node=self._accessing_node[:n].copy(),
            home_node=self._home_node[:n].copy(),
            thread=self._thread[:n].copy(),
            from_dram=np.ones(n, dtype=bool),
            is_write=self._is_write[:n].copy(),
        )
        self._length = 0
        return batch


class IbsEngine:
    """Collects IBS samples from per-epoch access streams.

    Parameters
    ----------
    n_nodes:
        Number of NUMA nodes (one sample buffer per node).
    rate:
        Samples per represented DRAM access (e.g. ``2e-5``).
    cost_cycles_per_sample:
        CPU cycles charged per collected sample (interrupt + record),
        the source of IBS overhead in the paper's overhead assessment.
    """

    def __init__(
        self,
        n_nodes: int,
        rate: float = 2e-5,
        cost_cycles_per_sample: float = 2500.0,
    ) -> None:
        if n_nodes <= 0:
            raise ConfigurationError("n_nodes must be positive")
        if not 0.0 <= rate <= 1.0:
            raise ConfigurationError("sampling rate must be in [0, 1]")
        if cost_cycles_per_sample < 0:
            raise ConfigurationError("cost per sample must be non-negative")
        self.n_nodes = n_nodes
        self.rate = rate
        self.cost_cycles_per_sample = cost_cycles_per_sample
        self._stores: List[_SampleStore] = [_SampleStore() for _ in range(n_nodes)]
        self._collected_since_drain = 0
        #: The one generator :meth:`record_epoch_batch` loads each
        #: thread's captured state into, built on first use.
        self._replay: Optional[np.random.Generator] = None

    def record_epoch_batch(
        self,
        threads: np.ndarray,
        accessing_nodes: np.ndarray,
        streams: np.ndarray,
        home_nodes: np.ndarray,
        writes: np.ndarray,
        stream_sizes: np.ndarray,
        represented_accesses: float,
        rng_states: Sequence[dict],
    ) -> np.ndarray:
        """Sample many thread-epoch streams in one call.

        ``streams``/``home_nodes``/``writes`` are ``(n_threads,
        stream_length)`` matrices of which row ``t`` holds the first
        ``stream_sizes[t]`` entries of thread ``t``'s stream;
        ``accessing_nodes[t]`` is the thread's node.  Threads are
        processed in the order given by ``threads`` and each thread's
        Poisson/index draws come from a generator in the captured
        ``bit_generator`` state ``rng_states[t]``, so every draw is the
        one that thread's own generator would make next: a Poisson
        sample count (capped at the stream length), then uniform stream
        indices.  Returns per-thread sample counts indexed like
        ``stream_sizes``.
        """
        counts = np.zeros(len(stream_sizes), dtype=np.int64)
        if self.rate == 0 or represented_accesses <= 0:
            return counts
        expected = self.rate * represented_accesses
        for t in threads:
            t = int(t)
            n_stream = int(stream_sizes[t])
            if n_stream == 0:
                continue
            node = int(accessing_nodes[t])
            if not 0 <= node < self.n_nodes:
                raise ConfigurationError("accessing_node out of range")
            rng = self._replay = rng_from_state(rng_states[t], self._replay)
            n_samples = int(rng.poisson(expected))
            if n_samples == 0:
                continue
            n_samples = min(n_samples, n_stream)
            idx = rng.integers(0, n_stream, size=n_samples)
            self._stores[node].append(
                streams[t, idx],
                home_nodes[t, idx].astype(np.int8),
                t,
                node,
                writes[t, idx],
            )
            self._collected_since_drain += n_samples
            counts[t] = n_samples
        return counts

    @property
    def pending_samples(self) -> int:
        """Samples collected since the last drain."""
        return self._collected_since_drain

    def drain(self) -> IbsSamples:
        """Return and clear all buffered samples (all nodes combined)."""
        batches: List[IbsSamples] = []
        for store in self._stores:
            batch = store.drain()
            if batch is not None:
                batches.append(batch)
        self._collected_since_drain = 0
        if len(batches) == 1:
            return batches[0]
        return IbsSamples.concatenate(batches)
