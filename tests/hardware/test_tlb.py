"""Tests for the multi-size TLB model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hardware.caches import CacheModel
from repro.hardware.tlb import TlbModel, TlbSpec
from repro.vm.layout import PageSize


@pytest.fixture
def model():
    return TlbModel(TlbSpec(), CacheModel())


class TestTlbSpec:
    def test_defaults(self):
        spec = TlbSpec()
        assert spec.entries_for(PageSize.SIZE_4K) == 1024
        assert spec.entries_for(PageSize.SIZE_2M) == 128
        assert spec.entries_for(PageSize.SIZE_1G) == 16

    def test_invalid_entries(self):
        with pytest.raises(ConfigurationError):
            TlbSpec(entries_4k=0)

    def test_negative_walk_cost(self):
        with pytest.raises(ConfigurationError):
            TlbSpec(walk_base_cycles=-1)


EVERY_SIZE = pytest.mark.parametrize(
    "size", list(PageSize), ids=lambda size: size.name
)


def uniform(size, n_pages):
    """All accesses spread evenly over ``n_pages`` pages of ``size``."""
    return {size: (np.array([float(n_pages)]), np.array([1.0]), np.array([1.0]))}


class TestEpochResultGrouped:
    @EVERY_SIZE
    def test_no_accesses(self, model, size):
        res = model.epoch_result_grouped(uniform(size, 100), 0.0)
        assert res.misses == 0.0
        assert res.walk_cycles == 0.0
        assert res.miss_rate == 0.0

    @EVERY_SIZE
    def test_fitting_working_set_no_misses(self, model, size):
        entries = model.spec.entries_for(size)
        res = model.epoch_result_grouped(uniform(size, entries // 2), 1e6)
        assert res.misses == pytest.approx(0.0)

    @EVERY_SIZE
    def test_large_working_set_misses(self, model, size):
        entries = model.spec.entries_for(size)
        res = model.epoch_result_grouped(uniform(size, 100 * entries), 1e6)
        assert res.misses > 0.9e6
        assert res.miss_rate > 0.9
        assert res.walk_cycles > 0

    def test_2m_coverage_beats_4k(self, model):
        # Same working set expressed as 512x fewer 2MB translations.
        res_4k = model.epoch_result_grouped(uniform(PageSize.SIZE_4K, 50_000), 1e6)
        res_2m = model.epoch_result_grouped(
            uniform(PageSize.SIZE_2M, 50_000 // 512), 1e6
        )
        assert res_2m.misses < res_4k.misses * 0.05

    @EVERY_SIZE
    def test_negative_accesses_rejected(self, model, size):
        with pytest.raises(ConfigurationError):
            model.epoch_result_grouped(uniform(size, 100), -1.0)

    def test_run_length_divides_misses(self, model):
        base = model.epoch_result_grouped(
            {PageSize.SIZE_4K: (np.array([50_000.0]), np.array([1.0]), np.array([1.0]))},
            1e6,
        )
        long_runs = model.epoch_result_grouped(
            {PageSize.SIZE_4K: (np.array([50_000.0]), np.array([1.0]), np.array([100.0]))},
            1e6,
        )
        assert long_runs.misses < base.misses / 50

    def test_empty_groups(self, model):
        res = model.epoch_result_grouped({}, 1e6)
        assert res.misses == 0.0

    def test_mixed_sizes_share_weighting(self, model):
        groups = {
            PageSize.SIZE_4K: (
                np.array([100_000.0]),
                np.array([0.5]),
                np.array([1.0]),
            ),
            PageSize.SIZE_2M: (
                np.array([10.0]),
                np.array([0.5]),
                np.array([1.0]),
            ),
        }
        res = model.epoch_result_grouped(groups, 1e6)
        # Only the 4K half should miss; 10 huge pages fit their array.
        assert 0.3e6 < res.misses < 0.55e6

    def test_miss_rate_bounded(self, model):
        groups = {
            PageSize.SIZE_4K: (
                np.array([1e7]),
                np.array([1.0]),
                np.array([1.0]),
            )
        }
        res = model.epoch_result_grouped(groups, 1e6)
        assert res.miss_rate <= 1.0
