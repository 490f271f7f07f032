"""Per-item Che model: the oracle for the grouped forms.

:mod:`repro.hardware.caches` solves Che's approximation for popularity
given as groups of equal items, which is all the TLB and page-walk
models need.  This module keeps the per-item forms, one probability per
item, which ``tests/hardware/test_caches.py`` compares the grouped forms
against.  The solve goes through ``caches._solve_occupancy`` at call
time, so a test that swaps the solver swaps it here too.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware import caches


def che_characteristic_time(popularity: np.ndarray, capacity: int) -> float:
    """Characteristic time ``T_C`` of an LRU cache of ``capacity`` items.

    ``popularity`` holds per-item access probabilities: non-negative,
    zeros ignored, normalised here.  ``inf`` when every distinct item
    fits in the cache.
    """
    if capacity <= 0:
        raise ConfigurationError("cache capacity must be positive")
    p = np.asarray(popularity, dtype=np.float64)
    if p.ndim != 1:
        raise ConfigurationError("popularity must be a 1-D array")
    if p.size and float(np.min(p)) < 0:
        raise ConfigurationError("popularity values must be non-negative")
    p = p[p > 0]
    if p.size == 0 or p.size <= capacity:
        return float("inf")
    p = p / float(np.sum(p))

    def occupied(t: float) -> float:
        return float(np.sum(-np.expm1(-p * t)))

    return caches._solve_occupancy(occupied, capacity)


def lru_hit_rate(popularity: np.ndarray, capacity: int) -> float:
    """Access-weighted LRU hit probability in ``[0, 1]``."""
    p = np.asarray(popularity, dtype=np.float64)
    p = p[p > 0]
    if p.size == 0:
        return 1.0
    t_c = che_characteristic_time(p, capacity)
    if np.isinf(t_c):
        return 1.0
    p = p / float(np.sum(p))
    hit = float(np.sum(p * -np.expm1(-p * t_c)))
    return min(max(hit, 0.0), 1.0)


def walk_l2_miss_rate(model: caches.CacheModel, page_popularity: np.ndarray) -> float:
    """Probability that a page-walk leaf reference misses in L2, from
    per-page access counts folded ``model.ptes_per_line`` pages to a
    PTE cache line."""
    counts = np.asarray(page_popularity, dtype=np.float64)
    counts = counts[counts > 0]
    if counts.size == 0:
        return 0.0
    pad = (-counts.size) % model.ptes_per_line
    if pad:
        counts = np.concatenate([counts, np.zeros(pad)])
    lines = counts.reshape(-1, model.ptes_per_line).sum(axis=1)
    return 1.0 - lru_hit_rate(lines, model.l2_lines_for_walks)
