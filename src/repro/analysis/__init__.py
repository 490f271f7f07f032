"""Static and runtime correctness tooling for the reproduction.

Two halves, both aimed at the same property — every simulation run must
be a deterministic, physically consistent function of its configuration:

* :mod:`repro.analysis.linter` + :mod:`repro.analysis.rules` — an
  AST-based linter (``repro lint``) with repo-specific rules that catch
  determinism and robustness bugs at review time (incomplete cache
  keys, unseeded randomness, ordering-dependent float accumulation,
  swallowed exceptions, mutable defaults / float equality);
* :mod:`repro.analysis.invariants` — an epoch-level runtime checker
  (``REPRO_CHECK=1`` or ``SimConfig.check_invariants``) asserting page
  conservation, counter sanity, allocator accounting and huge-page
  bookkeeping after every simulated epoch.
"""

from repro.analysis.invariants import (
    InvariantChecker,
    InvariantViolation,
    invariants_enabled,
)
from repro.analysis.linter import (
    Finding,
    format_findings,
    lint_paths,
    lint_source,
)
from repro.analysis.rules import ALL_RULES, default_rules

__all__ = [
    "ALL_RULES",
    "Finding",
    "InvariantChecker",
    "InvariantViolation",
    "default_rules",
    "format_findings",
    "invariants_enabled",
    "lint_paths",
    "lint_source",
]
