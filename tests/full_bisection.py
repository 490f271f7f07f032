"""Fixed-step reference for the Che characteristic-time bisection.

:func:`repro.hardware.caches._solve_occupancy` stops bisecting as soon
as the midpoint equals an end of the bracket.  Before that early exit
the solver always ran every one of its 80 halving steps.  This module
keeps that loop as the oracle: the randomized test in
``tests/hardware/test_caches.py`` swaps it in and requires bit-identical
characteristic times.
"""

from __future__ import annotations

from typing import Callable

FULL_BISECTION_STEPS = 80


def solve_occupancy_full(occupied: Callable[[float], float], capacity: int) -> float:
    """The bisection with all 80 steps and no early exit."""
    lo, hi = 0.0, float(capacity)
    while occupied(hi) < capacity:
        lo = hi
        hi *= 2.0
        if hi > 1e18:  # pragma: no cover - numeric guard
            return hi
    for _ in range(FULL_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if occupied(mid) < capacity:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
