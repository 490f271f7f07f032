"""Tests for the Che/LRU cache approximation, including properties.

The grouped forms are checked against the per-item model in
``tests/per_item_che.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.hardware import caches
from repro.hardware.caches import (
    CacheModel,
    che_characteristic_time_grouped,
    lru_group_hit_rates,
    lru_hit_rate_grouped,
)
from tests.full_bisection import solve_occupancy_full
from tests.per_item_che import (
    che_characteristic_time,
    lru_hit_rate,
    walk_l2_miss_rate,
)


class TestCharacteristicTime:
    def test_fits_in_cache_is_infinite(self):
        assert np.isinf(che_characteristic_time(np.ones(10), 10))
        assert np.isinf(che_characteristic_time(np.ones(5), 100))

    def test_empty_popularity(self):
        assert np.isinf(che_characteristic_time(np.zeros(0), 4))

    def test_zero_entries_ignored(self):
        pop = np.array([1.0, 0.0, 1.0])
        assert np.isinf(che_characteristic_time(pop, 2))

    def test_finite_when_overcommitted(self):
        t = che_characteristic_time(np.ones(1000), 100)
        assert np.isfinite(t)
        assert t > 0

    def test_invalid_capacity(self):
        with pytest.raises(ConfigurationError):
            che_characteristic_time(np.ones(10), 0)

    def test_negative_popularity_rejected(self):
        with pytest.raises(ConfigurationError):
            che_characteristic_time(np.array([1.0, -1.0]), 4)

    def test_2d_popularity_rejected(self):
        with pytest.raises(ConfigurationError):
            che_characteristic_time(np.ones((2, 2)), 4)


class TestLruHitRate:
    def test_uniform_matches_closed_form(self):
        # For uniform popularity over U items and capacity C << U the
        # LRU hit rate approaches C/U.
        rate = lru_hit_rate(np.ones(1000), 100)
        assert rate == pytest.approx(0.1, abs=0.02)

    def test_all_fits(self):
        assert lru_hit_rate(np.ones(16), 64) == 1.0

    def test_skew_improves_hit_rate(self):
        uniform = lru_hit_rate(np.ones(1000), 50)
        ranks = np.arange(1, 1001, dtype=float)
        zipf = lru_hit_rate(1.0 / ranks, 50)
        assert zipf > uniform

    def test_empty_is_perfect(self):
        assert lru_hit_rate(np.zeros(0), 16) == 1.0

    @given(
        n=st.integers(min_value=1, max_value=2000),
        cap=st.integers(min_value=1, max_value=512),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounds_property(self, n, cap, seed):
        rng = np.random.default_rng(seed)
        pop = rng.random(n) + 1e-9
        rate = lru_hit_rate(pop, cap)
        assert 0.0 <= rate <= 1.0

    @given(cap=st.integers(min_value=1, max_value=256))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_capacity(self, cap):
        pop = 1.0 / np.arange(1, 501, dtype=float)
        assert lru_hit_rate(pop, cap + 32) >= lru_hit_rate(pop, cap) - 1e-9


class TestGroupedForms:
    def test_grouped_matches_flat_uniform(self):
        flat = lru_hit_rate(np.ones(1000), 64)
        grouped = lru_hit_rate_grouped(np.array([1000.0]), np.array([1.0]), 64)
        assert grouped == pytest.approx(flat, abs=1e-6)

    def test_grouped_matches_flat_two_groups(self):
        # 100 hot items carrying 80% of traffic + 900 cold items.
        pop = np.concatenate([np.full(100, 0.8 / 100), np.full(900, 0.2 / 900)])
        flat = lru_hit_rate(pop, 128)
        grouped = lru_hit_rate_grouped(
            np.array([100.0, 900.0]), np.array([0.8, 0.2]), 128
        )
        assert grouped == pytest.approx(flat, abs=1e-6)

    def test_grouped_char_time_all_fits(self):
        t = che_characteristic_time_grouped(
            np.array([4.0, 4.0]), np.array([0.5, 0.5]), 16
        )
        assert np.isinf(t)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ConfigurationError):
            che_characteristic_time_grouped(np.ones(2), np.ones(3), 4)

    def test_per_group_hit_rates_align(self):
        counts = np.array([10.0, 1000.0])
        weights = np.array([0.9, 0.1])
        rates = lru_group_hit_rates(counts, weights, 64)
        assert rates.shape == (2,)
        # The small hot group should hit far more often than the big
        # cold one.
        assert rates[0] > rates[1]

    def test_per_group_dead_groups_hit(self):
        counts = np.array([0.0, 100.0])
        weights = np.array([0.5, 0.0])
        rates = lru_group_hit_rates(counts, weights, 16)
        assert rates[0] == 1.0
        assert rates[1] == 1.0

    @given(
        hot=st.integers(min_value=1, max_value=200),
        cold=st.integers(min_value=1, max_value=5000),
        cap=st.integers(min_value=8, max_value=512),
    )
    @settings(max_examples=40, deadline=None)
    def test_grouped_bounds_property(self, hot, cold, cap):
        rates = lru_group_hit_rates(
            np.array([hot, cold], dtype=float), np.array([0.7, 0.3]), cap
        )
        assert np.all(rates >= 0.0) and np.all(rates <= 1.0)


class TestBisectionEarlyExit:
    """The solver's early exit against the 80-step oracle."""

    @staticmethod
    def _counting(solve, calls):
        def wrapped(occupied, capacity):
            def measure(t):
                calls.append(1)
                return occupied(t)

            return solve(measure, capacity)

        return wrapped

    def test_random_solves_bit_identical(self, monkeypatch):
        rng = np.random.default_rng(20140619)
        problems = []
        for _ in range(150):
            k = int(rng.integers(1, 7))
            cap = int(rng.choice([16, 128, 512, 1024]))
            # Overcommitted, so every problem bisects.
            counts = np.floor(10.0 ** rng.uniform(0.0, 6.0, k)) + cap
            weights = rng.random(k) + 1e-12
            problems.append(
                lambda c=counts, w=weights, cap=cap:
                che_characteristic_time_grouped(c, w, cap)
            )
        for _ in range(50):
            cap = int(rng.integers(1, 256))
            pop = rng.random(int(rng.integers(cap + 1, 3000))) ** 3
            problems.append(
                lambda p=pop, cap=cap: che_characteristic_time(p, cap)
            )
        early_calls, full_calls = [], []
        monkeypatch.setattr(
            caches, "_solve_occupancy",
            self._counting(caches._solve_occupancy, early_calls),
        )
        early = [solve() for solve in problems]
        monkeypatch.setattr(
            caches, "_solve_occupancy",
            self._counting(solve_occupancy_full, full_calls),
        )
        full = [solve() for solve in problems]
        assert np.array(early).tobytes() == np.array(full).tobytes()
        assert np.all(np.isfinite(early))
        assert len(early_calls) < len(full_calls)


class TestCacheModel:
    def test_small_pte_set_hits(self):
        model = CacheModel(l2_lines_for_walks=512)
        assert walk_l2_miss_rate(model, np.ones(100)) == pytest.approx(0.0, abs=0.05)

    def test_huge_pte_set_misses(self):
        model = CacheModel(l2_lines_for_walks=512)
        assert walk_l2_miss_rate(model, np.ones(100_000)) > 0.8

    def test_empty_counts(self):
        model = CacheModel()
        assert walk_l2_miss_rate(model, np.zeros(0)) == 0.0

    def test_grouped_matches_flat(self):
        model = CacheModel(l2_lines_for_walks=256)
        flat = walk_l2_miss_rate(model, np.ones(8000))
        grouped = model.walk_l2_miss_rate_grouped(
            np.array([8000.0]), np.array([1.0])
        )
        assert grouped == pytest.approx(flat, abs=0.02)

    def test_grouped_empty(self):
        model = CacheModel()
        assert model.walk_l2_miss_rate_grouped(np.zeros(0), np.zeros(0)) == 0.0

    def test_miss_rate_monotone_in_working_set(self):
        model = CacheModel(l2_lines_for_walks=512)
        small = model.walk_l2_miss_rate_grouped(np.array([1e3]), np.array([1.0]))
        big = model.walk_l2_miss_rate_grouped(np.array([1e6]), np.array([1.0]))
        assert big >= small
