"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table or figure of the paper and both
prints it and writes it under ``benchmarks/output/``.  The simulation
scale is controlled by the ``REPRO_BENCH_SCALE`` environment variable
(default 0.25, the quick preset); set it to 1.0 to regenerate the
numbers quoted in ``EXPERIMENTS.md``.

Independent runs inside each figure/table fan out over worker
processes: set ``REPRO_JOBS`` to choose the worker count (default
``cpu_count``; ``REPRO_JOBS=1`` forces the serial path).  Results
persist in the on-disk cache (``REPRO_CACHE_DIR``, default
``~/.cache/repro``), so a re-run after an interrupted sweep only pays
for the missing combinations; set ``REPRO_CACHE=0`` for a cold run.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.experiments.parallel import resolve_jobs
from repro.sim.config import SimConfig

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def settings() -> SimConfig:
    """The config benchmark runs share (scale from REPRO_BENCH_SCALE)."""
    scale = float(os.environ.get("REPRO_BENCH_SCALE", "0.25"))
    seed = int(os.environ.get("REPRO_BENCH_SEED", "0"))
    if scale >= 1.0:
        config = SimConfig(seed=seed)
    else:
        config = SimConfig(
            stream_length=768, scale=scale, seed=seed, ibs_rate=2e-4
        )
    return config


@pytest.fixture(scope="session")
def repro_jobs() -> int:
    """Worker count the parallel runner will use (REPRO_JOBS env)."""
    return resolve_jobs()


@pytest.fixture(scope="session")
def report_sink():
    """Callable that prints a report and persists it to disk."""
    OUTPUT_DIR.mkdir(exist_ok=True)

    def _sink(report) -> None:
        text = report.render()
        print()
        print(text)
        (OUTPUT_DIR / f"{report.experiment_id}.txt").write_text(text + "\n")

    return _sink
