"""Experiment drivers that regenerate every table and figure.

Each experiment in :data:`repro.experiments.experiments.EXPERIMENTS`
returns a :class:`repro.experiments.reporting.Report` whose rows mirror
the corresponding paper artifact (Figures 1-5, Tables 1-3, the
Section 4.2 overhead assessment and the Section 4.4 very-large-page
study).
"""

from repro.experiments.cache import ResultCache, cache_enabled, run_fingerprint
from repro.experiments.configs import POLICIES, make_policy
from repro.experiments.parallel import GridRunner, backend_choice, resolve_jobs
from repro.experiments.runner import RunSettings, RunSpec, run_benchmark
from repro.experiments.reporting import Report
from repro.experiments.experiments import EXPERIMENTS, run_experiment

__all__ = [
    "POLICIES",
    "make_policy",
    "RunSettings",
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
    "run_fingerprint",
]
