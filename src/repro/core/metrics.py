"""Sample tables and metric helpers shared by the Carrefour family.

Everything the policies know comes from IBS samples.  A
:class:`PageSampleTable` groups a batch of samples by *backing page*
(at the page sizes currently in use, or — for what-if estimates — at
4KB granularity regardless of backing) and exposes the per-page,
per-node access counts that drive every placement decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware.ibs import IbsSamples
from repro.vm.address_space import AddressSpace


@dataclass
class PageSampleTable:
    """Per-page sample statistics from one monitoring interval.

    Attributes
    ----------
    ids:
        Backing-page ids (or granule ids in 4KB mode), one per page.
    node_counts:
        ``(n_pages, n_nodes)`` samples per page per *accessing* node.
    thread_counts:
        ``(n_pages,)`` number of distinct accessing threads per page.
    n_samples:
        Total samples in the table.
    """

    ids: np.ndarray
    node_counts: np.ndarray
    thread_counts: np.ndarray
    n_samples: int
    #: Sampled stores per page (replication eligibility).
    write_counts: np.ndarray = None

    @classmethod
    def from_samples(
        cls,
        samples: IbsSamples,
        address_space: AddressSpace,
        n_nodes: int,
        granularity: str = "backing",
    ) -> "PageSampleTable":
        """Group a sample batch by page.

        ``granularity='backing'`` groups by the page sizes currently in
        use; ``granularity='4k'`` groups by 4KB granule regardless of
        backing (the "what if we split everything" view).

        Each table is built once per batch: it is memoized in
        ``samples.tables``, keyed on the granularity and node count and,
        for ``backing`` tables, on the address space and its
        :attr:`~repro.vm.address_space.AddressSpace.layout_version` (the
        only state :meth:`~repro.vm.address_space.AddressSpace.backing_info`
        reads).  Callers share the table, so its arrays are made
        read-only.
        """
        if granularity == "backing":
            key: tuple = (
                granularity, n_nodes, address_space, address_space.layout_version
            )
        elif granularity == "4k":
            key = (granularity, n_nodes)
        else:
            raise ConfigurationError(f"unknown granularity {granularity!r}")
        table = samples.tables.get(key)
        if table is None:
            table = cls._group(samples, address_space, n_nodes, granularity)
            for column in (
                table.ids,
                table.node_counts,
                table.thread_counts,
                table.write_counts,
            ):
                column.flags.writeable = False
            samples.tables[key] = table
        return table

    @classmethod
    def _group(
        cls,
        samples: IbsSamples,
        address_space: AddressSpace,
        n_nodes: int,
        granularity: str,
    ) -> "PageSampleTable":
        """Build one table (:meth:`from_samples` without the memo)."""
        if len(samples) == 0:
            return cls(
                ids=np.empty(0, dtype=np.int64),
                node_counts=np.empty((0, n_nodes)),
                thread_counts=np.empty(0, dtype=np.int64),
                n_samples=0,
                write_counts=np.empty(0),
            )
        if granularity == "backing":
            keys, _ = address_space.backing_info(samples.granule)
        else:
            keys = np.asarray(samples.granule, dtype=np.int64)
        ids, inverse = np.unique(keys, return_inverse=True)
        inverse = inverse.astype(np.int64).reshape(-1)
        node_counts = (
            np.bincount(
                inverse * n_nodes + samples.accessing_node.astype(np.int64),
                minlength=ids.size * n_nodes,
            )
            .reshape(ids.size, n_nodes)
            .astype(np.float64)
        )
        write_counts = np.bincount(
            inverse,
            weights=samples.is_write.astype(np.float64),
            minlength=ids.size,
        )
        # Distinct accessing threads per page, via a packed
        # (page, thread) pair key.  The multiplier must exceed every
        # thread id or pairs from different pages would collide and
        # corrupt the distinct-thread counts, so it widens with the
        # data instead of assuming int16 thread ids.
        threads = samples.thread.astype(np.int64)
        if threads.size and int(threads.min()) < 0:
            raise ConfigurationError("thread ids must be non-negative")
        multiplier = max(65536, int(threads.max()) + 1 if threads.size else 0)
        pair = np.sort(inverse * multiplier + threads)
        # Sort-and-diff dedup: plain np.unique hashes, which is far
        # slower on arrays this size.
        first = np.ones(pair.size, dtype=bool)
        np.not_equal(pair[1:], pair[:-1], out=first[1:])
        thread_counts = np.bincount(pair[first] // multiplier, minlength=ids.size)
        return cls(
            ids=ids,
            node_counts=node_counts,
            thread_counts=thread_counts,
            n_samples=int(len(samples)),
            write_counts=write_counts,
        )

    @property
    def totals(self) -> np.ndarray:
        """Total samples per page."""
        return self.node_counts.sum(axis=1)

    @property
    def nodes_touching(self) -> np.ndarray:
        """Number of distinct accessing nodes per page."""
        return (self.node_counts > 0).sum(axis=1)

    def single_node_mask(self) -> np.ndarray:
        """Pages whose samples all came from one node."""
        return self.nodes_touching == 1

    def shared_mask(self) -> np.ndarray:
        """Pages sampled from at least two nodes."""
        return self.nodes_touching >= 2

    def hot_mask(self, threshold_pct: float) -> np.ndarray:
        """Pages receiving more than ``threshold_pct`` percent of samples."""
        if self.n_samples == 0:
            return np.zeros(0, dtype=bool)
        return self.totals > self.n_samples * threshold_pct / 100.0

    def read_only_mask(self) -> np.ndarray:
        """Pages with no sampled store (replication candidates)."""
        if self.write_counts is None:
            return np.ones(self.ids.shape, dtype=bool)
        return self.write_counts == 0

    def dominant_nodes(self) -> np.ndarray:
        """Most frequent accessing node per page."""
        if self.ids.size == 0:
            return np.empty(0, dtype=np.int64)
        return np.argmax(self.node_counts, axis=1)


def sample_lar(samples: IbsSamples) -> float:
    """Current local access ratio estimated from samples, percent."""
    if len(samples) == 0:
        return 100.0
    local = np.count_nonzero(samples.accessing_node == samples.home_node)
    return 100.0 * local / len(samples)
