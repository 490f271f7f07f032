"""NUMA topology: nodes, cores and the interconnect distance matrix.

A :class:`NumaTopology` is a static description of a machine.  It knows
how many nodes and cores exist, which core belongs to which node, how
much DRAM each node hosts, and how many interconnect hops separate any
two nodes.  The dynamic behaviour (queueing at memory controllers, link
congestion) lives in :mod:`repro.hardware.mem_controller` and
:mod:`repro.hardware.interconnect`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class NumaNode:
    """One NUMA node: a set of cores plus a local memory controller."""

    node_id: int
    n_cores: int
    dram_bytes: int

    def __post_init__(self) -> None:
        if self.node_id < 0:
            raise ConfigurationError("node_id must be non-negative")
        if self.n_cores <= 0:
            raise ConfigurationError("a node must have at least one core")
        if self.dram_bytes <= 0:
            raise ConfigurationError("a node must host some DRAM")


@dataclass(frozen=True)
class NumaTopology:
    """A complete NUMA machine description.

    Parameters
    ----------
    name:
        Human-readable machine name (e.g. ``"machine-A"``).
    nodes:
        The NUMA nodes, ordered by ``node_id`` starting at zero.
    hop_matrix:
        ``(n_nodes, n_nodes)`` integer matrix of interconnect hops; zero
        on the diagonal, symmetric, positive off the diagonal.
    cpu_freq_hz:
        Core clock frequency, used to convert cycles to seconds.
    """

    name: str
    nodes: Sequence[NumaNode]
    hop_matrix: np.ndarray
    cpu_freq_hz: float
    _core_to_node: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        nodes = tuple(self.nodes)
        object.__setattr__(self, "nodes", nodes)
        if not nodes:
            raise ConfigurationError("a machine needs at least one node")
        for i, node in enumerate(nodes):
            if node.node_id != i:
                raise ConfigurationError(
                    f"nodes must be ordered by id; found id {node.node_id} at index {i}"
                )
        hops = np.asarray(self.hop_matrix, dtype=np.int64)
        if hops.shape != (len(nodes), len(nodes)):
            raise ConfigurationError(
                f"hop_matrix shape {hops.shape} does not match {len(nodes)} nodes"
            )
        if np.any(np.diag(hops) != 0):
            raise ConfigurationError("hop_matrix diagonal must be zero")
        if np.any(hops != hops.T):
            raise ConfigurationError("hop_matrix must be symmetric")
        off_diag = hops[~np.eye(len(nodes), dtype=bool)]
        if off_diag.size and np.any(off_diag <= 0):
            raise ConfigurationError("off-diagonal hops must be positive")
        if self.cpu_freq_hz <= 0:
            raise ConfigurationError("cpu_freq_hz must be positive")
        object.__setattr__(self, "hop_matrix", hops)
        core_to_node = np.repeat(
            np.arange(len(nodes), dtype=np.int8), [n.n_cores for n in nodes]
        )
        object.__setattr__(self, "_core_to_node", core_to_node)

    # ------------------------------------------------------------------
    # Shape accessors
    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Number of NUMA nodes."""
        return len(self.nodes)

    @property
    def n_cores(self) -> int:
        """Total number of cores across all nodes."""
        return int(self._core_to_node.size)

    @property
    def core_to_node(self) -> np.ndarray:
        """Array mapping global core id to its node id."""
        return self._core_to_node

    def hops(self, src: int, dst: int) -> int:
        """Number of interconnect hops from node ``src`` to node ``dst``."""
        return int(self.hop_matrix[src, dst])

    def describe(self) -> str:
        """One-paragraph human-readable summary used in reports."""
        node = self.nodes[0]
        return (
            f"{self.name}: {self.n_nodes} NUMA nodes x {node.n_cores} cores "
            f"({self.n_cores} cores total), "
            f"{node.dram_bytes // (1024 ** 3)}GB DRAM per node, "
            f"{self.cpu_freq_hz / 1e9:.1f}GHz"
        )
