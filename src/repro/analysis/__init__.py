"""Static and runtime correctness tooling for the reproduction.

Two halves, both aimed at the same property — every simulation run must
be a deterministic, physically consistent function of its configuration:

* :mod:`repro.analysis.linter` + :mod:`repro.analysis.rules` — an
  AST-based linter (``repro lint``) with repo-specific rules that catch
  determinism and robustness bugs at review time (incomplete cache
  keys, unseeded randomness, ordering-dependent float accumulation,
  swallowed exceptions, mutable defaults / float equality);
* :mod:`repro.analysis.invariants` — an epoch-level runtime checker
  (``REPRO_CHECK=1``) asserting page
  conservation, counter sanity, allocator accounting and huge-page
  bookkeeping after every simulated epoch.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.analysis.invariants": (
            "InvariantChecker",
            "InvariantViolation",
        ),
        "repro.analysis.linter": (
            "Finding",
            "format_findings",
            "lint_paths",
            "lint_source",
        ),
        "repro.analysis.rules": ("ALL_RULES", "default_rules"),
    },
)

__all__ = [
    "ALL_RULES",
    "Finding",
    "InvariantChecker",
    "InvariantViolation",
    "default_rules",
    "format_findings",
    "lint_paths",
    "lint_source",
]
