"""Shared fixtures for the benchmark harness.

Each artifact test checks the shape of one table or figure of the
paper, named by its ``@pytest.mark.artifact(...)`` marker.  The session
runs every collected artifact once, as one grid
(:func:`repro.experiments.experiments.run_experiments`, so a run two
artifacts share is simulated once), and both prints each report and
writes it under ``benchmarks/output/``.  The simulation scale is
controlled by the ``REPRO_BENCH_SCALE`` environment variable (default
0.25, the quick preset); set it to 1.0 to regenerate the numbers quoted
in ``EXPERIMENTS.md``.

The grid's independent runs fan out over worker processes: set
``REPRO_JOBS`` to choose the worker count (default ``cpu_count``;
``REPRO_JOBS=1`` forces the serial path).  Each result persists in the
on-disk cache (``REPRO_CACHE_DIR``, default ``~/.cache/repro``) as it
finishes, so a re-run after an interrupted sweep only pays for the
missing runs; set ``REPRO_CACHE=0`` for a cold run.
"""

from __future__ import annotations

import os
import pathlib
from dataclasses import replace

import pytest

from repro.experiments.experiments import EXPERIMENTS, run_experiments
from repro.experiments.parallel import resolve_jobs
from repro.sim.config import SimConfig

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "artifact(name): the artifact whose report the test checks"
    )


@pytest.fixture(scope="session")
def settings() -> SimConfig:
    """The config benchmark runs share (scale from REPRO_BENCH_SCALE)."""
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))
    seed = int(os.environ.get("REPRO_BENCH_SEED", "0"))
    if scale >= 1.0:
        return SimConfig(seed=seed)
    return replace(SimConfig.quick(seed), scale=scale)


@pytest.fixture(scope="session")
def repro_jobs() -> int:
    """Worker count the parallel runner will use (REPRO_JOBS env)."""
    return resolve_jobs()


@pytest.fixture(scope="session")
def reports(request, settings):
    """Every collected artifact's report, from one grid, each printed
    and written to ``OUTPUT_DIR``."""
    collected = {
        mark.args[0]
        for item in request.session.items
        for mark in item.iter_markers("artifact")
    }
    reports = run_experiments([n for n in EXPERIMENTS if n in collected], settings)
    OUTPUT_DIR.mkdir(exist_ok=True)
    for name, report in reports.items():
        text = report.render()
        print()
        print(text)
        (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")
    return reports


@pytest.fixture
def report(request, reports):
    """The report of the artifact the requesting test is marked with."""
    return reports[request.node.get_closest_marker("artifact").args[0]]
