"""Tests for the machine A / machine B presets (paper Section 2.1)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hardware.machines import machine_a, machine_b, machine_by_name

GIB = 1024**3


class TestMachineA:
    def test_shape(self):
        topo = machine_a()
        assert topo.n_nodes == 4
        assert topo.n_cores == 24
        assert all(node.n_cores == 6 for node in topo.nodes)

    def test_dram(self):
        topo = machine_a()
        assert all(node.dram_bytes == 12 * GIB for node in topo.nodes)

    def test_frequency(self):
        assert machine_a().cpu_freq_hz == pytest.approx(1.7e9)

    def test_hop_matrix_valid(self):
        topo = machine_a()
        hops = topo.hop_matrix
        assert np.array_equal(hops, hops.T)
        assert np.all(np.diag(hops) == 0)
        assert hops.max() <= 2


class TestMachineB:
    def test_shape(self):
        topo = machine_b()
        assert topo.n_nodes == 8
        assert topo.n_cores == 64
        assert all(node.n_cores == 8 for node in topo.nodes)

    def test_dram(self):
        topo = machine_b()
        assert sum(node.dram_bytes for node in topo.nodes) == 512 * GIB

    def test_hops_bounded(self):
        topo = machine_b()
        off_diag = topo.hop_matrix[~np.eye(8, dtype=bool)]
        assert off_diag.min() >= 1
        assert off_diag.max() <= 3

    def test_intra_package_one_hop(self):
        topo = machine_b()
        for base in range(0, 8, 2):
            assert topo.hops(base, base + 1) == 1


class TestLookup:
    @pytest.mark.parametrize("name", ["A", "machine-A"])
    def test_machine_a_names(self, name):
        assert machine_by_name(name).n_nodes == 4

    @pytest.mark.parametrize("name", ["B", "machine-B"])
    def test_machine_b_names(self, name):
        assert machine_by_name(name).n_nodes == 8

    def test_unknown_machine(self):
        with pytest.raises(ConfigurationError):
            machine_by_name("C")

    def test_fresh_instances(self):
        assert machine_a() is not machine_a()
