"""Analytic LRU cache model (Che's approximation).

Both the TLB model and the page-walk cache/L2 model need the same
primitive: given a popularity distribution over items (pages, PTE cache
lines) and an LRU cache of ``capacity`` entries, what is the hit rate?

Che's approximation [Che et al., JSAC 2002] answers this accurately for
LRU under the independent reference model: an item accessed with
probability :math:`p_i` hits with probability
:math:`1 - e^{-p_i T_C}` where the characteristic time :math:`T_C`
solves :math:`\\sum_i (1 - e^{-p_i T_C}) = C`.

The approximation is exactly the quantity the paper consumes: TLB
behaviour only enters through aggregate miss rates and the fraction of
L2 misses caused by page-table walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError

_MAX_BISECTION_STEPS = 80


def _solve_occupancy(occupied: Callable[[float], float], capacity: int) -> float:
    """Bisect for the ``t`` at which ``occupied(t)`` reaches ``capacity``.

    ``occupied`` must be non-decreasing in ``t``.  The bracket doubles
    from ``[0, capacity]`` until it holds the root, then halves for at
    most :data:`_MAX_BISECTION_STEPS` steps.  Once the midpoint equals
    an end of the bracket the two ends are adjacent floats: every
    further step leaves the result at that midpoint, so returning it
    early is bit-identical to running all the steps.
    """
    lo, hi = 0.0, float(capacity)
    # Grow hi until the occupancy at hi exceeds the capacity.
    while occupied(hi) < capacity:
        lo = hi
        hi *= 2.0
        if hi > 1e18:  # pragma: no cover - numeric guard
            return hi
    for _ in range(_MAX_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return mid
        if occupied(mid) < capacity:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def che_characteristic_time_grouped(
    group_counts: np.ndarray, group_weights: np.ndarray, capacity: int
) -> float:
    """Characteristic time for popularity given as *groups* of equal items.

    Group ``i`` contains ``group_counts[i]`` items which together receive
    ``group_weights[i]`` of the accesses (each item in the group has
    probability ``group_weights[i] / group_counts[i]``).  This closed
    form avoids materialising per-item arrays for working sets of
    millions of pages.
    """
    if capacity <= 0:
        raise ConfigurationError("cache capacity must be positive")
    counts = np.asarray(group_counts, dtype=np.float64)
    weights = np.asarray(group_weights, dtype=np.float64)
    if counts.shape != weights.shape:
        raise ConfigurationError("group counts and weights must align")
    if counts.size and (np.any(counts < 0) or np.any(weights < 0)):
        raise ConfigurationError("group counts and weights must be non-negative")
    live = (counts > 0) & (weights > 0)
    counts, weights = counts[live], weights[live]
    if counts.size == 0 or float(np.sum(counts)) <= capacity:
        return float("inf")
    weights = weights / float(np.sum(weights))
    per_item = weights / counts

    def occupied(t: float) -> float:
        return float(np.sum(counts * -np.expm1(-per_item * t)))

    return _solve_occupancy(occupied, capacity)


def lru_hit_rate_grouped(
    group_counts: np.ndarray, group_weights: np.ndarray, capacity: int
) -> float:
    """Aggregate LRU hit rate for grouped popularity (see above)."""
    counts = np.asarray(group_counts, dtype=np.float64)
    weights = np.asarray(group_weights, dtype=np.float64)
    live = (counts > 0) & (weights > 0)
    counts, weights = counts[live], weights[live]
    if counts.size == 0:
        return 1.0
    t_c = che_characteristic_time_grouped(counts, weights, capacity)
    if np.isinf(t_c):
        return 1.0
    weights = weights / float(np.sum(weights))
    per_item = weights / counts
    hit = float(np.sum(weights * -np.expm1(-per_item * t_c)))
    return min(max(hit, 0.0), 1.0)


def lru_group_hit_rates(
    group_counts: np.ndarray, group_weights: np.ndarray, capacity: int
) -> np.ndarray:
    """Per-group LRU hit rates under a shared cache (Che approximation).

    Returns an array aligned with the input groups (groups with zero
    count or weight get hit rate 1.0 — they never miss because they are
    never accessed).
    """
    counts = np.asarray(group_counts, dtype=np.float64)
    weights = np.asarray(group_weights, dtype=np.float64)
    if counts.shape != weights.shape:
        raise ConfigurationError("group counts and weights must align")
    out = np.ones(counts.shape, dtype=np.float64)
    live = (counts > 0) & (weights > 0)
    if not np.any(live):
        return out
    t_c = che_characteristic_time_grouped(counts[live], weights[live], capacity)
    if np.isinf(t_c):
        return out
    w = weights[live] / float(np.sum(weights[live]))
    per_item = w / counts[live]
    out[live] = np.clip(-np.expm1(-per_item * t_c), 0.0, 1.0)
    return out


@dataclass(frozen=True)
class CacheModel:
    """L2 cache model for page-walk references.

    On AMD Opterons a TLB miss triggers a hardware page-table walk whose
    references compete for the L2 cache with application data.  The
    paper's conservative component watches "the fraction of L2 cache
    misses due to page table walks".  We reproduce that signal: the
    leaf-level PTEs of the pages touched in an epoch form a working set
    of 64-byte cache lines (8 PTEs each); Che's approximation over that
    working set, restricted to the share of L2 capacity available to
    page-table data, yields the per-walk L2 miss probability.

    Attributes
    ----------
    l2_lines_for_walks:
        Number of 64-byte L2 lines effectively available to page-table
        data (the rest is occupied by application data).
    l2_miss_penalty_cycles:
        Extra cycles charged when a walk reference misses in L2
        (serviced from L3 or DRAM).
    ptes_per_line:
        PTEs per 64-byte cache line (8 on x86-64).
    """

    l2_lines_for_walks: int = 512
    l2_miss_penalty_cycles: float = 180.0
    ptes_per_line: int = 8

    def walk_l2_miss_rate_grouped(
        self, group_counts: np.ndarray, group_weights: np.ndarray
    ) -> float:
        """Probability that a page-walk leaf reference misses in L2.

        ``group_counts[i]`` pages share ``group_weights[i]`` of the
        epoch's accesses; consecutive pages share PTE cache lines, so
        line counts are the page counts divided by
        :attr:`ptes_per_line`.
        """
        counts = np.asarray(group_counts, dtype=np.float64)
        weights = np.asarray(group_weights, dtype=np.float64)
        live = (counts > 0) & (weights > 0)
        counts, weights = counts[live], weights[live]
        if counts.size == 0:
            return 0.0
        lines = np.maximum(counts / self.ptes_per_line, 1.0)
        return 1.0 - lru_hit_rate_grouped(lines, weights, self.l2_lines_for_walks)
