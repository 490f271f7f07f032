"""Tests for the benchmark registry and the benchmark model specs."""

import numpy as np
import pytest

from repro._util import rng_for
from repro.errors import UnknownWorkloadError
from repro.workloads.registry import (
    AFFECTED_SET,
    FIGURE1_ORDER,
    UNAFFECTED_SET,
    available_workloads,
    get_workload,
)
from tests.per_thread_streams import shipped_stream


class TestRegistry:
    def test_figure1_has_19_benchmarks(self):
        assert len(FIGURE1_ORDER) == 19

    def test_affected_set_matches_paper(self):
        assert AFFECTED_SET == [
            "CG.D",
            "LU.B",
            "UA.B",
            "UA.C",
            "MatrixMultiply",
            "wrmem",
            "SSCA.20",
            "SPECjbb",
        ]

    def test_unaffected_set_matches_paper(self):
        assert len(UNAFFECTED_SET) == 11
        assert set(AFFECTED_SET) | set(UNAFFECTED_SET) == set(FIGURE1_ORDER)
        assert not set(AFFECTED_SET) & set(UNAFFECTED_SET)

    def test_streamcluster_available_but_not_figure1(self):
        assert "streamcluster" in available_workloads()
        assert "streamcluster" not in FIGURE1_ORDER

    def test_lookup_case_insensitive(self):
        assert get_workload("cg.d").name == "CG.D"
        assert get_workload("SPECjbb").name == "SPECjbb"

    def test_unknown_raises(self):
        with pytest.raises(UnknownWorkloadError):
            get_workload("nope")


class TestAllSpecsInstantiate:
    @pytest.mark.parametrize("name", FIGURE1_ORDER + ["streamcluster"])
    def test_instantiates_on_both_machines(
        self, name, machine_a_topo, machine_b_topo
    ):
        for topo in (machine_a_topo, machine_b_topo):
            inst = get_workload(name).instantiate(topo, scale=0.25, seed=0)
            assert inst.n_threads == topo.n_cores
            assert inst.total_epochs > 0
            # Footprint fits comfortably in the machine's DRAM.
            dram = sum(node.dram_bytes for node in topo.nodes)
            assert inst.n_granules * 4096 < dram // 2

    @pytest.mark.parametrize("name", FIGURE1_ORDER)
    def test_streams_and_groups_valid(self, name, machine_a_topo):
        inst = get_workload(name).instantiate(machine_a_topo, scale=0.25, seed=0)
        rng = rng_for(inst.seed, inst.name, "stream", 0, 0)
        g, _ = shipped_stream(inst, 0, 0, rng, 512)
        assert len(g) == 512
        assert np.all((g >= 0) & (g < inst.n_granules))
        groups = inst.tlb_groups(0, 0)
        assert groups
        assert sum(grp.weight for grp in groups) == pytest.approx(1.0)
        for grp in groups:
            assert grp.distinct_2m <= grp.distinct_4k + 1e-9
            assert grp.run_length >= 1.0

    @pytest.mark.parametrize("name", ["CG.D", "UA.B", "SPECjbb"])
    def test_cost_profiles_scale_with_machine(
        self, name, machine_a_topo, machine_b_topo
    ):
        a = get_workload(name).instantiate(machine_a_topo, 0.25, 0)
        b = get_workload(name).instantiate(machine_b_topo, 0.25, 0)
        # Per-thread DRAM intensity reflects controller capacity per
        # core, which differs between the machines.
        assert a.cost.dram_accesses != b.cost.dram_accesses
