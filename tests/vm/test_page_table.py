"""Tests for the closed-form page-table footprint model."""

from repro.vm.layout import PAGE_4K, PageSize
from repro.vm.page_table import ENTRIES_PER_TABLE, PageTableModel

GIB = 1 << 30


class TestClosedForm:
    def test_zero_bytes(self):
        assert PageTableModel().bytes_for_fully_mapped(0, PageSize.SIZE_4K) == 0

    def test_4k_tables_dominate(self):
        model = PageTableModel()
        four_k = model.bytes_for_fully_mapped(GIB, PageSize.SIZE_4K)
        two_m = model.bytes_for_fully_mapped(GIB, PageSize.SIZE_2M)
        # 1GB at 4K needs 512 PTE tables (2MB) plus upper levels.
        assert four_k > 512 * PAGE_4K
        assert two_m < four_k / 100

    def test_oracle_motivation_scenario(self):
        # The paper's motivation: ~7GB of page tables for a large DBMS
        # with 500 connections each mapping a shared buffer cache.
        model = PageTableModel()
        out = model.footprint_per_process(
            mapped_bytes=7 * GIB, page_size=PageSize.SIZE_4K, n_processes=500
        )
        assert out["total_bytes"] > 6 * GIB
        out_2m = model.footprint_per_process(
            mapped_bytes=7 * GIB, page_size=PageSize.SIZE_2M, n_processes=500
        )
        assert out_2m["total_bytes"] < out["total_bytes"] / 100

    def test_entries_per_table(self):
        assert ENTRIES_PER_TABLE == 512
