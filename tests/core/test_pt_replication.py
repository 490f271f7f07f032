"""Page-table NUMA modelling and the Mitosis-style replication policy."""

import numpy as np

from repro.experiments.configs import make_policy
from repro.sim.trace import run_traced
from repro.vm.address_space import AddressSpace
from repro.vm.frame_allocator import PhysicalMemory
from repro.vm.layout import GRANULES_PER_2M, PAGE_4K

GIB = 1 << 30

WORKLOAD, MACHINE = "SSCA.20", "A"


def total(result, field):
    return sum(getattr(s, field) for _, s in result.action_log)


class TestRemoteWalkPenalty:
    def test_pt_remote_slower_than_thp(self, run):
        """Remote table walks must cost simulated time vs plain THP."""
        thp = run(WORKLOAD, MACHINE, "thp")
        remote = run(WORKLOAD, MACHINE, "pt-remote")
        assert remote.runtime_s > thp.runtime_s

    def test_replication_recovers_most_of_the_penalty(self, run):
        thp = run(WORKLOAD, MACHINE, "thp")
        remote = run(WORKLOAD, MACHINE, "pt-remote")
        replicated = run(WORKLOAD, MACHINE, "replication")
        assert thp.runtime_s < replicated.runtime_s < remote.runtime_s
        penalty = remote.runtime_s - thp.runtime_s
        residual = replicated.runtime_s - thp.runtime_s
        # Only the pre-replication interval(s) still pay remote walks.
        assert residual < 0.5 * penalty

    def test_pt_remote_moves_no_data(self, run):
        remote = run(WORKLOAD, MACHINE, "pt-remote")
        assert total(remote, "bytes_migrated") == 0
        assert total(remote, "bytes_replicated") == 0

    def test_replication_charges_copy_cost(self, run):
        replicated = run(WORKLOAD, MACHINE, "replication")
        copied = total(replicated, "bytes_replicated")
        assert copied > 0
        assert copied % PAGE_4K == 0
        assert total(replicated, "replicated_pages") == copied // PAGE_4K
        assert total(replicated, "bytes_migrated") == 0


class TestReplicationDecision:
    def test_replicates_exactly_once(self, quick_config):
        _, trace = run_traced(
            WORKLOAD, MACHINE, "replication", quick_config
        )
        assert trace.counts() == {"ReplicatePageTables": 1}
        assert all(rec["applied"] for rec in trace.records)

    def test_pt_remote_decides_nothing(self, quick_config):
        _, trace = run_traced(WORKLOAD, MACHINE, "pt-remote", quick_config)
        assert trace.records == []

    def test_composes_with_carrefour(self, quick_config):
        result, trace = run_traced(
            WORKLOAD, MACHINE, "carrefour-2m+replication", quick_config
        )
        kinds = trace.counts()
        assert kinds.get("ReplicatePageTables", 0) == 1
        assert kinds.get("MigratePages", 0) > 0
        assert total(result, "bytes_replicated") > 0
        assert total(result, "bytes_migrated") > 0

    def test_policy_flags(self):
        remote = make_policy("pt-remote")
        replicated = make_policy("replication")
        assert not remote.replicate and replicated.replicate
        assert not remote.wants_ibs()
        assert remote.name == "pt-remote"
        assert replicated.name == "replication"


class TestPageTableBytes:
    def make_asp(self, n_chunks=4, n_nodes=2):
        phys = PhysicalMemory([GIB] * n_nodes)
        return AddressSpace(n_chunks * GRANULES_PER_2M, phys)

    def test_empty_space_has_no_tables(self):
        asp = self.make_asp()
        assert asp.page_table_bytes() == 0

    def test_huge_mapping_pays_pmd_only(self):
        asp = self.make_asp()
        asp.premap_pattern_2m(0, np.zeros(4, dtype=np.int8))
        # All four 2M chunks share one PMD page; no PTE pages needed.
        assert asp.page_table_bytes() == PAGE_4K

    def test_4k_mapping_pays_pte_pages(self):
        asp = self.make_asp()
        asp.premap_pattern_4k(0, np.zeros(1, dtype=np.int8))
        # One PTE page for the chunk's 4KB entries + one PMD page.
        assert asp.page_table_bytes() == 2 * PAGE_4K

    def test_split_grows_tables(self):
        from repro.vm.address_space import (
            BACKING_ID_2M_OFFSET,
            split_backing_page,
        )

        asp = self.make_asp()
        asp.premap_pattern_2m(0, np.zeros(4, dtype=np.int8))
        before = asp.page_table_bytes()
        split_backing_page(asp, BACKING_ID_2M_OFFSET)
        assert asp.page_table_bytes() > before
