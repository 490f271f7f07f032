"""Experiment drivers that regenerate every table and figure.

Each experiment in :data:`repro.experiments.experiments.EXPERIMENTS`
returns a :class:`repro.experiments.reporting.Report` whose rows mirror
the corresponding paper artifact (Figures 1-5, Tables 1-3, the
Section 4.2 overhead assessment and the Section 4.4 very-large-page
study).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.experiments.cache": ("ResultCache", "cache_enabled"),
        "repro.experiments.configs": ("POLICIES", "make_policy"),
        "repro.experiments.parallel": (
            "GridRunner",
            "backend_choice",
            "resolve_jobs",
        ),
        "repro.experiments.runner": ("RunSpec", "run_benchmark"),
        "repro.experiments.reporting": ("Report",),
        "repro.experiments.experiments": ("EXPERIMENTS", "run_experiment"),
    },
)

__all__ = [
    "POLICIES",
    "make_policy",
    "run_benchmark",
    "Report",
    "EXPERIMENTS",
    "run_experiment",
    "GridRunner",
    "RunSpec",
    "backend_choice",
    "resolve_jobs",
    "ResultCache",
    "cache_enabled",
]
