"""TLB model with separate entry arrays per page size.

AMD family-15h cores keep distinct L2 data-TLB capacities for 4KB, 2MB
and 1GB translations.  The model consumes, per thread and per epoch,
the working set as groups of equally popular *backing pages* per size
class (whatever sizes the address space currently uses) and produces
expected TLB misses via the grouped Che/LRU approximation in
:mod:`repro.hardware.caches`.

The essential effect reproduced here is TLB *coverage*: the same
working set needs 512x fewer 2MB translations than 4KB ones, so
backing memory with huge pages collapses the miss rate — the benefit
side of the paper's trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.hardware.caches import CacheModel, lru_group_hit_rates
from repro.vm.layout import PageSize


@dataclass(frozen=True)
class TlbSpec:
    """Per-size TLB capacities and walk costs.

    Defaults approximate an AMD Opteron 6100/6200 L2 DTLB: 1024 4KB
    entries, 128 2MB entries, 16 1GB entries.  ``walk_base_cycles`` is
    the cost of a walk whose references all hit in the cache hierarchy;
    misses add :attr:`repro.hardware.caches.CacheModel.l2_miss_penalty_cycles`.
    """

    entries_4k: int = 1024
    entries_2m: int = 128
    entries_1g: int = 16
    walk_base_cycles: float = 35.0

    def __post_init__(self) -> None:
        if min(self.entries_4k, self.entries_2m, self.entries_1g) <= 0:
            raise ConfigurationError("TLB entry counts must be positive")
        if self.walk_base_cycles < 0:
            raise ConfigurationError("walk_base_cycles must be non-negative")

    def entries_for(self, size: PageSize) -> int:
        """Entry count of the array serving a given page size."""
        return {
            PageSize.SIZE_4K: self.entries_4k,
            PageSize.SIZE_2M: self.entries_2m,
            PageSize.SIZE_1G: self.entries_1g,
        }[size]


@dataclass(frozen=True)
class TlbEpochResult:
    """TLB outcome for one thread-epoch.

    Attributes
    ----------
    misses:
        Expected number of TLB misses (scaled to represented accesses).
    walk_cycles:
        Total cycles spent in page-table walks, including the L2-miss
        penalty for the fraction of walks whose leaf PTE reference
        missed in L2.
    walk_l2_misses:
        Expected number of L2 misses caused by walk references.
    miss_rate:
        Access-weighted TLB miss probability in ``[0, 1]``.
    """

    misses: float
    walk_cycles: float
    walk_l2_misses: float
    miss_rate: float


#: Most grouped results one :class:`TlbModel` remembers.  A quick run
#: classifies its threads into a handful of distinct inputs, so the
#: bound only matters for a model fed arbitrary inputs; past it the
#: oldest entry goes first.
MEMO_LIMIT = 4096


def _memo_key(
    groups_by_size: Mapping[PageSize, Tuple[np.ndarray, np.ndarray, np.ndarray]],
    represented_accesses: float,
) -> tuple:
    """The exact value of one :meth:`TlbModel.epoch_result_grouped` input.

    Per size class, the bytes of the float64 page counts, weights and
    run lengths; plus the bytes of ``represented_accesses``.  Equal keys
    are bitwise-equal inputs, so they get bitwise-equal results.
    """
    parts = [np.float64(represented_accesses).tobytes()]
    for size in sorted(groups_by_size):
        counts, weights, run_lengths = groups_by_size[size]
        parts.append((
            int(size),
            np.asarray(counts, dtype=np.float64).tobytes(),
            np.asarray(weights, dtype=np.float64).tobytes(),
            np.asarray(run_lengths, dtype=np.float64).tobytes(),
        ))
    return tuple(parts)


class TlbModel:
    """Computes per-epoch TLB misses and walk costs for one machine.

    Grouped results are memoized on their exact inputs (see
    :meth:`epoch_result_grouped`); each tenant owns one model, so the
    memo lives exactly as long as the run.
    """

    def __init__(self, spec: TlbSpec, cache_model: CacheModel) -> None:
        self.spec = spec
        self.cache_model = cache_model
        self._memo: Dict[tuple, TlbEpochResult] = {}
        #: Grouped model evaluations made, and calls the memo answered.
        self.evaluations = 0
        self.memo_hits = 0

    def epoch_result_grouped(
        self,
        groups_by_size: Mapping[PageSize, Tuple[np.ndarray, np.ndarray, np.ndarray]],
        represented_accesses: float,
    ) -> TlbEpochResult:
        """TLB behaviour of one thread for one epoch.

        ``groups_by_size[size]`` is a triple ``(page_counts, weights,
        run_lengths)``: ``page_counts[i]`` pages of that size class
        together receive ``weights[i]`` of the thread's accesses
        (weights across *all* size classes are normalised jointly), and
        accesses within group ``i`` arrive in runs of ``run_lengths[i]``
        consecutive accesses to the same page (spatial locality).  The
        independent-reference model is evaluated at the granularity of
        runs, so a sequential sweep (large run length) produces at most
        one TLB miss per page visit rather than one per access — which
        is why dense HPC kernels have negligible TLB cost while sparse
        graph traversals (run length ~1) are TLB-bound.

        Results are memoized on the exact input value (:func:`_memo_key`),
        never on where the input came from: a thread whose classified
        groups come out bitwise-equal to an earlier epoch's, or to
        another thread's, reuses that evaluation.
        """
        if represented_accesses < 0:
            raise ConfigurationError("represented_accesses must be non-negative")
        key = _memo_key(groups_by_size, represented_accesses)
        result = self._memo.get(key)
        if result is not None:
            self.memo_hits += 1
            return result
        result = self._evaluate_grouped(groups_by_size, represented_accesses)
        self.evaluations += 1
        if len(self._memo) >= MEMO_LIMIT:
            del self._memo[next(iter(self._memo))]
        self._memo[key] = result
        return result

    def _evaluate_grouped(
        self,
        groups_by_size: Mapping[PageSize, Tuple[np.ndarray, np.ndarray, np.ndarray]],
        represented_accesses: float,
    ) -> TlbEpochResult:
        """One uncached evaluation of :meth:`epoch_result_grouped`."""
        total_weight = 0.0
        for _size, (counts, weights, _) in sorted(groups_by_size.items()):
            total_weight += float(np.sum(np.asarray(weights, dtype=np.float64)))
        if total_weight <= 0:
            return TlbEpochResult(0.0, 0.0, 0.0, 0.0)

        misses = 0.0
        walk_l2_misses = 0.0
        for size, (counts, weights, run_lengths) in sorted(groups_by_size.items()):
            counts = np.asarray(counts, dtype=np.float64)
            weights = np.asarray(weights, dtype=np.float64)
            run_lengths = np.maximum(np.asarray(run_lengths, dtype=np.float64), 1.0)
            share = float(np.sum(weights)) / total_weight
            if share <= 0:
                continue
            accesses = represented_accesses * share
            size_total = float(np.sum(weights))
            # The cache sees page *visits*: weight scaled down by run
            # length (each run needs a single translation lookup chain).
            visit_weights = weights / run_lengths
            hits = lru_group_hit_rates(
                counts, visit_weights, self.spec.entries_for(size)
            )
            group_accesses = accesses * weights / size_total
            group_visits = group_accesses / run_lengths
            size_misses = float(np.sum(group_visits * (1.0 - hits)))
            misses += size_misses
            l2_miss_rate = self.cache_model.walk_l2_miss_rate_grouped(
                counts, visit_weights
            )
            walk_l2_misses += size_misses * l2_miss_rate

        walk_cycles = (
            misses * self.spec.walk_base_cycles
            + walk_l2_misses * self.cache_model.l2_miss_penalty_cycles
        )
        miss_rate = misses / represented_accesses if represented_accesses else 0.0
        return TlbEpochResult(
            misses=misses,
            walk_cycles=walk_cycles,
            walk_l2_misses=walk_l2_misses,
            miss_rate=min(miss_rate, 1.0),
        )
