"""Unit tests for the NUMA topology model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hardware.topology import NumaNode, NumaTopology

GIB = 1024**3


def make_topo(n_nodes=2, cores=2):
    nodes = [NumaNode(i, cores, GIB) for i in range(n_nodes)]
    hops = np.ones((n_nodes, n_nodes), dtype=int) - np.eye(n_nodes, dtype=int)
    return NumaTopology("t", nodes, hops, 2e9)


class TestNumaNode:
    def test_valid_node(self):
        node = NumaNode(0, 4, GIB)
        assert node.n_cores == 4

    def test_negative_id_rejected(self):
        with pytest.raises(ConfigurationError):
            NumaNode(-1, 4, GIB)

    def test_zero_cores_rejected(self):
        with pytest.raises(ConfigurationError):
            NumaNode(0, 0, GIB)

    def test_zero_dram_rejected(self):
        with pytest.raises(ConfigurationError):
            NumaNode(0, 1, 0)


class TestNumaTopology:
    def test_core_counts(self):
        topo = make_topo(n_nodes=3, cores=4)
        assert topo.n_nodes == 3
        assert topo.n_cores == 12

    def test_core_to_node_is_node_major(self):
        topo = make_topo(n_nodes=2, cores=2)
        assert list(topo.core_to_node) == [0, 0, 1, 1]

    def test_hops_diagonal_zero(self):
        topo = make_topo(n_nodes=3)
        for i in range(3):
            assert topo.hops(i, i) == 0

    def test_unordered_nodes_rejected(self):
        nodes = [NumaNode(1, 2, GIB), NumaNode(0, 2, GIB)]
        with pytest.raises(ConfigurationError):
            NumaTopology("t", nodes, np.zeros((2, 2), dtype=int), 2e9)

    def test_asymmetric_hops_rejected(self):
        nodes = [NumaNode(i, 2, GIB) for i in range(2)]
        hops = np.array([[0, 1], [2, 0]])
        with pytest.raises(ConfigurationError):
            NumaTopology("t", nodes, hops, 2e9)

    def test_nonzero_diagonal_rejected(self):
        nodes = [NumaNode(i, 2, GIB) for i in range(2)]
        hops = np.array([[1, 1], [1, 0]])
        with pytest.raises(ConfigurationError):
            NumaTopology("t", nodes, hops, 2e9)

    def test_nonpositive_offdiagonal_rejected(self):
        nodes = [NumaNode(i, 2, GIB) for i in range(2)]
        hops = np.array([[0, 0], [0, 0]])
        with pytest.raises(ConfigurationError):
            NumaTopology("t", nodes, hops, 2e9)

    def test_bad_frequency_rejected(self):
        nodes = [NumaNode(i, 2, GIB) for i in range(2)]
        hops = np.array([[0, 1], [1, 0]])
        with pytest.raises(ConfigurationError):
            NumaTopology("t", nodes, hops, 0.0)

    def test_wrong_hop_shape_rejected(self):
        nodes = [NumaNode(i, 2, GIB) for i in range(3)]
        with pytest.raises(ConfigurationError):
            NumaTopology("t", nodes, np.zeros((2, 2), dtype=int), 2e9)

    def test_describe_mentions_shape(self):
        topo = make_topo(n_nodes=2, cores=2)
        text = topo.describe()
        assert "2 NUMA nodes" in text
        assert "4 cores total" in text
