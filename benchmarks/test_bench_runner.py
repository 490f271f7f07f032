"""Benchmarks the parallel runner itself and emits ``BENCH_runner.json``.

Times one representative grid three ways — serial (``jobs=1``),
parallel (``REPRO_JOBS`` or 2+), and warm (everything answered from
the persistent cache) — plus one representative run (CG.D on the
8-node machine B) with and without per-epoch invariant checking, and
records the wall-clock numbers in ``BENCH_runner.json`` at the
repository root so the performance trajectory of the execution layer
is tracked from PR to PR.

The grid is run in a throwaway cache directory so the timings are
honest cold-start numbers regardless of the developer's cache state.
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from repro.experiments.parallel import (
    GridRunner,
    RunSpec,
    backend_choice,
    resolve_jobs,
)
from repro.experiments.runner import execute_run
from repro.options import CHECK_ENV, STREAM_CACHE_ENV
from repro.workloads.streambank import clear_stream_banks

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_runner.json"

#: A figure-shaped slice of the experiment grid: shared baselines plus
#: per-policy runs across both machines, small enough to time twice.
BENCH_GRID = [
    RunSpec(wl, machine, policy)
    for wl in ("CG.D", "UA.B", "SSCA.20")
    for machine in ("A", "B")
    for policy in ("linux-4k", "thp")
]


def _timed_run(settings, jobs: int, cache_dir: pathlib.Path) -> float:
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    # Each timed pass starts with cold stream banks AND its own block
    # store; a shared REPRO_STREAM_CACHE would let the serial pass warm
    # the parallel pass's fills from disk and inflate the speedup.
    os.environ[STREAM_CACHE_ENV] = str(cache_dir / "stream-store")
    clear_stream_banks()
    start = time.perf_counter()
    results = GridRunner(settings, jobs=jobs).run(BENCH_GRID)
    elapsed = time.perf_counter() - start
    assert len(results) == len(BENCH_GRID)
    return elapsed


def _timed_invariant_overhead(settings, repeats: int = 3) -> dict:
    """Wall-clock for CG.D@B with per-epoch invariant checking off/on.

    Uses ``execute_run`` (no caching) so both passes
    really simulate; each arm sets ``REPRO_CHECK``, and the caller's
    value is restored afterwards.

    A single off/on pair is dominated by warm-up noise (allocator and
    stream-bank caches, CPU frequency) and has historically reported
    negative overhead for a strictly-additive check.  Each arm is
    therefore timed ``repeats`` times interleaved, the raw timings are
    recorded, and the overhead is computed best-of-N against best-of-N
    — minima are the noise-robust estimator for a lower-bounded cost.
    """
    old_env = os.environ.get(CHECK_ENV)
    try:
        raw = {"off": [], "on": []}
        for _ in range(repeats):
            # Interleave the arms so drift (thermal, competing load)
            # hits both equally instead of biasing the second arm.
            for label, check in (("off", "0"), ("on", "1")):
                os.environ[CHECK_ENV] = check
                start = time.perf_counter()
                execute_run(RunSpec("CG.D", "B", "carrefour-lp"), settings)
                raw[label].append(time.perf_counter() - start)
    finally:
        if old_env is None:
            os.environ.pop(CHECK_ENV, None)
        else:
            os.environ[CHECK_ENV] = old_env
    best_off = min(raw["off"])
    best_on = min(raw["on"])
    return {
        "run": "CG.D@B/carrefour-lp",
        "repeats": repeats,
        "unchecked_wall_s_raw": [round(s, 3) for s in raw["off"]],
        "checked_wall_s_raw": [round(s, 3) for s in raw["on"]],
        "unchecked_wall_s": round(best_off, 3),
        "checked_wall_s": round(best_on, 3),
        "overhead_pct": round(
            100.0 * (best_on - best_off) / best_off, 1
        )
        if best_off
        else None,
    }


def test_bench_runner(settings, repro_jobs, tmp_path):
    old_cache_dir = os.environ.get("REPRO_CACHE_DIR")
    old_stream_cache = os.environ.get(STREAM_CACHE_ENV)
    # The backend follows the core count, and the reason is recorded
    # in the payload: a one-core box resolves to the serial loop, in
    # which case the parallel pass is honestly skipped rather than
    # timed as a pessimization.
    backend, backend_reason = backend_choice()
    jobs_requested = max(2, repro_jobs)
    jobs = resolve_jobs(jobs_requested, backend)
    try:
        serial_s = _timed_run(settings, 1, tmp_path / "serial")
        parallel_s = (
            _timed_run(settings, jobs, tmp_path / "parallel")
            if jobs > 1
            else None
        )
        # Warm pass: same cache dir as the parallel pass, so every run
        # is answered from disk.
        os.environ["REPRO_CACHE_DIR"] = str(tmp_path / ("parallel" if jobs > 1 else "serial"))
        start = time.perf_counter()
        warm = GridRunner(settings, jobs=jobs).run(BENCH_GRID)
        warm_s = time.perf_counter() - start
    finally:
        if old_cache_dir is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = old_cache_dir
        if old_stream_cache is None:
            os.environ.pop(STREAM_CACHE_ENV, None)
        else:
            os.environ[STREAM_CACHE_ENV] = old_stream_cache
        clear_stream_banks()

    assert len(warm) == len(BENCH_GRID)
    invariant_check = _timed_invariant_overhead(settings)
    payload = {
        "grid": [spec.describe() for spec in BENCH_GRID],
        "n_runs": len(BENCH_GRID),
        "jobs_requested": jobs_requested,
        "jobs_effective": jobs,
        "backend": backend,
        "backend_reason": backend_reason,
        "cpu_count": os.cpu_count(),
        "scale": settings.scale,
        "serial_wall_s": round(serial_s, 3),
        "parallel_wall_s": round(parallel_s, 3) if parallel_s is not None else None,
        "warm_cache_wall_s": round(warm_s, 3),
        "speedup_parallel": (
            round(serial_s / parallel_s, 2) if parallel_s else None
        ),
        "speedup_warm": round(serial_s / warm_s, 2) if warm_s else None,
        "invariant_check": invariant_check,
    }
    BENCH_JSON.write_text(json.dumps(payload, indent=2) + "\n")
    print()
    print(json.dumps(payload, indent=2))

    # The warm path must always beat re-simulating; the parallel-vs-
    # serial ratio is hardware-dependent (>=2x on a 4+-core machine)
    # so it is recorded, not asserted, to keep CI load-tolerant.
    assert warm_s < serial_s
