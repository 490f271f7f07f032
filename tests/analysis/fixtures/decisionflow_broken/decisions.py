"""Decision classes with deliberate contract violations.

* ``SplitPage`` declares ``splits_2m``, which its handler forgets (R112).
* ``ConfusedDecision`` declares domain ``thp`` but claims ``page``
  targets (R113).
"""

from dataclasses import dataclass
from typing import ClassVar, Tuple


@dataclass(frozen=True)
class Decision:
    domain: ClassVar[str] = "none"
    counters: ClassVar[Tuple[str, ...]] = ()

    def targets(self):
        return ()


@dataclass(frozen=True)
class MigratePage(Decision):
    page_id: int
    dst_node: int

    domain: ClassVar[str] = "page"
    counters: ClassVar[Tuple[str, ...]] = ("bytes_migrated",)

    def targets(self):
        return (("page", self.page_id),)


@dataclass(frozen=True)
class SplitPage(Decision):
    page_id: int

    domain: ClassVar[str] = "page"
    counters: ClassVar[Tuple[str, ...]] = ("splits_2m",)

    def targets(self):
        return (("page", self.page_id),)


@dataclass(frozen=True)
class ConfusedDecision(Decision):
    """R113: domain says ``thp`` but the targets claim ``page``."""

    page_id: int

    domain: ClassVar[str] = "thp"

    def targets(self):
        return (("page", self.page_id),)
