"""Sample tables and metric helpers shared by the Carrefour family.

Everything the policies know comes from IBS samples.  A
:class:`PageSampleTable` groups a batch of samples by *backing page*, at
the page sizes currently in use, and keeps the per-page columns
(samples, accessing nodes, dominant node, stores) behind every decision.
The what-if estimate of splitting every large page groups by 4KB
granule with a lighter pass of its own
(:mod:`repro.core.lar_estimator`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro._util import run_starts
from repro.errors import ConfigurationError
from repro.hardware.ibs import IbsSamples
from repro.vm.address_space import AddressSpace


@dataclass
class PageSampleTable:
    """Per-page sample statistics from one monitoring interval.

    Every column holds one 8-byte value per page, pages in ascending id
    order, so a table takes 40 bytes per page whatever the node count.

    Attributes
    ----------
    ids:
        Backing-page ids, one per page.
    totals:
        Samples per page.
    nodes_touching:
        Number of distinct accessing nodes per page.
    dominant:
        Most frequent accessing node per page, the lowest on a tie.
    write_counts:
        Sampled stores per page (replication eligibility).
    n_samples:
        Total samples in the table.
    """

    ids: np.ndarray
    totals: np.ndarray
    nodes_touching: np.ndarray
    dominant: np.ndarray
    write_counts: np.ndarray
    n_samples: int

    @classmethod
    def from_samples(
        cls,
        samples: IbsSamples,
        address_space: AddressSpace,
        n_nodes: int,
    ) -> "PageSampleTable":
        """Group a sample batch by the page sizes currently in use.

        Each table is built once per batch: it is memoized in
        ``samples.tables``, keyed on the node count, the address space
        and its :attr:`~repro.vm.address_space.AddressSpace.layout_version`
        (the only state
        :meth:`~repro.vm.address_space.AddressSpace.backing_ids` reads).
        Callers share the table, so its arrays are made read-only.
        """
        key = (n_nodes, address_space, address_space.layout_version)
        table = samples.tables.get(key)
        if table is None:
            table = cls._group(samples, address_space, n_nodes)
            for name in ("ids", "totals", "nodes_touching", "dominant", "write_counts"):
                getattr(table, name).flags.writeable = False
            samples.tables[key] = table
        return table

    @classmethod
    def _group(
        cls,
        samples: IbsSamples,
        address_space: AddressSpace,
        n_nodes: int,
    ) -> "PageSampleTable":
        """Build one table (:meth:`from_samples` without the memo).

        One in-place sort of packed ``(page << (nbits + 1)) |
        (accessing_node << 1) | is_write`` keys, ``nbits`` wide enough
        for every node below ``n_nodes``, lines each page's samples up
        by node: a page is a run of keys equal from bit ``nbits + 1``
        up, and its samples from one node a run equal from bit 1 up.
        """
        n = len(samples)
        if n == 0:
            ints, floats = np.empty(0, dtype=np.int64), np.empty(0)
            return cls(ints, floats, ints.copy(), ints.copy(), floats.copy(), 0)
        nodes = samples.accessing_node
        nbits = node_bits(nodes, n_nodes)
        keys = address_space.backing_ids(samples.granule)
        keys <<= nbits + 1
        keys |= np.left_shift(nodes, 1, dtype=np.int64)
        keys |= samples.is_write
        keys.sort()

        # (page, node) runs over the samples, then page runs over those.
        runs = run_starts(keys >> 1)
        run_keys = keys[runs] >> 1
        page_runs = run_starts(run_keys >> nbits)

        # A page's dominant node is its longest run, the lowest node on
        # a tie (as ``argmax`` over a row of node counts): each run
        # scores its length above the complement of its node.
        low = (1 << nbits) - 1
        score = np.diff(runs, append=n) << nbits
        score |= low - (run_keys & low)
        dominant = low - (np.maximum.reduceat(score, page_runs) & low)
        # Drop each temporary once read: a build's peak stays near its
        # sorted keys and its columns.
        del score
        ids = run_keys[page_runs] >> nbits
        del run_keys
        pages = runs[page_runs]
        nodes_touching = np.diff(page_runs, append=runs.size)
        del runs, page_runs
        keys &= 1
        write_counts = np.add.reduceat(keys, pages).astype(np.float64)
        del keys
        return cls(
            ids=ids,
            totals=np.diff(pages, append=n).astype(np.float64),
            nodes_touching=nodes_touching,
            dominant=dominant,
            write_counts=write_counts,
            n_samples=n,
        )

    def single_node_mask(self) -> np.ndarray:
        """Pages whose samples all came from one node."""
        return self.nodes_touching == 1

    def shared_mask(self) -> np.ndarray:
        """Pages sampled from at least two nodes."""
        return self.nodes_touching >= 2

    def hot_mask(self, threshold_pct: float) -> np.ndarray:
        """Pages receiving more than ``threshold_pct`` percent of samples."""
        return self.totals > self.n_samples * threshold_pct / 100.0

    def read_only_mask(self) -> np.ndarray:
        """Pages with no sampled store (replication candidates)."""
        return self.write_counts == 0

    def dominant_nodes(self) -> np.ndarray:
        """Most frequent accessing node per page."""
        return self.dominant


def node_bits(nodes: np.ndarray, n_nodes: int) -> int:
    """Bits a node id takes in a packed sample key, once every one of
    the non-empty ``nodes`` is checked to lie in ``[0, n_nodes)``: one
    outside would alias into the next page's key."""
    if int(nodes.min()) < 0 or int(nodes.max()) >= n_nodes:
        raise ConfigurationError(f"accessing nodes must lie in [0, {n_nodes})")
    return (n_nodes - 1).bit_length()


def sample_lar(samples: IbsSamples) -> float:
    """Current local access ratio estimated from samples, percent."""
    if len(samples) == 0:
        return 100.0
    local = np.count_nonzero(samples.accessing_node == samples.home_node)
    return 100.0 * local / len(samples)
