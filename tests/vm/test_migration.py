"""Tests for the migration / split / collapse cost model."""

import pytest

from repro.errors import ConfigurationError
from repro.vm.layout import PAGE_2M, PAGE_4K
from repro.vm.migration import MigrationCostModel


class TestValidation:
    def test_defaults_ok(self):
        MigrationCostModel()

    def test_bad_copy_rate(self):
        with pytest.raises(ConfigurationError):
            MigrationCostModel(copy_bytes_per_sec=0)

    def test_negative_fixed_cost(self):
        with pytest.raises(ConfigurationError):
            MigrationCostModel(split_cost_s=-1)


class TestMigrationTime:
    def test_scales_with_bytes(self):
        model = MigrationCostModel(
            copy_bytes_per_sec=1e9, fixed_cost_per_migration_s=0
        )
        assert model.migration_time_s(1e9, 1) == pytest.approx(1.0)

    def test_fixed_cost_per_page(self):
        model = MigrationCostModel(fixed_cost_per_migration_s=1e-5)
        base = model.migration_time_s(0, 100)
        assert base == pytest.approx(1e-3)

    def test_2m_migration_costlier_than_4k(self):
        model = MigrationCostModel()
        assert model.migration_time_s(PAGE_2M, 1) > model.migration_time_s(PAGE_4K, 1)

    def test_2m_cheaper_than_512_4k(self):
        # Moving one 2MB page beats moving its 512 constituents
        # (fewer fixed costs), which is why Carrefour-2M prefers it.
        model = MigrationCostModel()
        assert model.migration_time_s(PAGE_2M, 1) < model.migration_time_s(
            512 * PAGE_4K, 512
        )

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            MigrationCostModel().migration_time_s(-1, 0)


class TestSplitCollapse:
    def test_split_no_copy(self):
        model = MigrationCostModel()
        # Splits only touch page tables: far cheaper than a 2MB copy.
        assert model.split_time_s(1) < model.migration_time_s(PAGE_2M, 1)

    def test_collapse_includes_copy(self):
        model = MigrationCostModel()
        assert model.collapse_time_s(1) > PAGE_2M / model.copy_bytes_per_sec

    def test_ptl_contention(self):
        model = MigrationCostModel(ptl_contention_per_thread=0.1)
        assert model.split_time_s(10, n_threads=11) == pytest.approx(
            model.split_time_s(10, n_threads=1) * 2.0
        )

    def test_ptl_capped(self):
        model = MigrationCostModel(
            ptl_contention_per_thread=1.0, max_ptl_multiplier=2.0
        )
        assert model.split_time_s(1, n_threads=100) == pytest.approx(
            model.split_cost_s * 2.0
        )

    def test_zero_ops(self):
        model = MigrationCostModel()
        assert model.split_time_s(0) == 0.0
        assert model.collapse_time_s(0) == 0.0

    def test_negative_counts_rejected(self):
        model = MigrationCostModel()
        with pytest.raises(ConfigurationError):
            model.split_time_s(-1)
        with pytest.raises(ConfigurationError):
            model.collapse_time_s(-1)
