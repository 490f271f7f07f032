"""Cost model for page migration, splitting and promotion.

Carrefour's actions are not free: migrating a page copies its bytes
across the interconnect, and THP split/collapse manipulates page tables
under the page-table lock (the paper flags the global PTL as a
scalability concern in Section 4.3).  These costs feed the overhead
assessment of Section 4.2 — Carrefour-2M "spends too much time
migrating large pages" on FT and IS, which we reproduce by charging
per-byte copy costs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.vm.layout import PAGE_2M


@dataclass(frozen=True)
class MigrationCostModel:
    """Time costs for VM maintenance operations.

    ``copy_bytes_per_sec`` models the memcpy + interconnect transfer
    rate; fixed per-operation costs model unmap/remap/TLB-shootdown
    work.
    """

    copy_bytes_per_sec: float = 2.5e9
    fixed_cost_per_migration_s: float = 6.0e-6
    split_cost_s: float = 4.0e-5
    collapse_fixed_cost_s: float = 5.0e-5
    #: Page-table-lock contention multiplier applied to split/collapse
    #: when many threads run (coarse PTL model).
    ptl_contention_per_thread: float = 0.02
    max_ptl_multiplier: float = 4.0

    def __post_init__(self) -> None:
        if self.copy_bytes_per_sec <= 0:
            raise ConfigurationError("copy rate must be positive")
        if min(
            self.fixed_cost_per_migration_s,
            self.split_cost_s,
            self.collapse_fixed_cost_s,
        ) < 0:
            raise ConfigurationError("fixed costs must be non-negative")

    def _ptl_multiplier(self, n_threads: int) -> float:
        return min(
            1.0 + self.ptl_contention_per_thread * max(0, n_threads - 1),
            self.max_ptl_multiplier,
        )

    def migration_time_s(self, bytes_moved: int, n_migrations: int) -> float:
        """Time to migrate ``n_migrations`` pages totalling ``bytes_moved``."""
        if bytes_moved < 0 or n_migrations < 0:
            raise ConfigurationError("migration accounting must be non-negative")
        return (
            bytes_moved / self.copy_bytes_per_sec
            + n_migrations * self.fixed_cost_per_migration_s
        )

    def split_time_s(self, n_splits: int, n_threads: int = 1) -> float:
        """Time to split ``n_splits`` huge pages (no data copy needed)."""
        if n_splits < 0:
            raise ConfigurationError("split count must be non-negative")
        return n_splits * self.split_cost_s * self._ptl_multiplier(n_threads)

    def collapse_time_s(self, n_collapses: int, n_threads: int = 1) -> float:
        """Time to promote ``n_collapses`` 2MB ranges (copy + remap)."""
        if n_collapses < 0:
            raise ConfigurationError("collapse count must be non-negative")
        per_collapse = (
            self.collapse_fixed_cost_s + PAGE_2M / self.copy_bytes_per_sec
        )
        return n_collapses * per_collapse * self._ptl_multiplier(n_threads)

