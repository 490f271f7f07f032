"""Static and runtime correctness tooling for the reproduction.

Two halves, both aimed at the same property — every simulation run must
be a deterministic, physically consistent function of its configuration:

* ``repro lint`` — one parse of the source into a project-wide symbol
  table and call graph (:mod:`repro.analysis.callgraph`), over which
  the rules of :mod:`repro.analysis.rules` catch, at review time,
  swallowed broad exceptions, measurement code that writes simulation
  state, randomness or wall-clock reads reachable from a simulation,
  and decision-kernel contracts a decider, handler or conflict claim
  breaks;
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
]
