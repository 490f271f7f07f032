"""Paired cost of the per-phase profiler and of the invariant checker.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH``)::

    python3 perfbench/overhead.py OUT.jsonl SECONDS -- figure3 --quick --jobs 2

Runs one ``repro`` CLI invocation with every simulation it asks for
executed three times back to back: plain, with ``REPRO_PROFILE=1`` and
with ``REPRO_CHECK=1``.  The order is drawn per run from a generator
seeded with the run's arguments (seed included), so it repeats for the
same inputs but follows no structure of the grid; a drift in the
machine's load, or a cost that falls on whichever execution comes first,
therefore falls on every variant alike on average.  Each execution starts
from empty stream banks, so each pays the same generation cost.  Grid runs
execute in the pool workers (forked after the wrappers are installed), so
the pool shares the cost of the extra executions.  After SECONDS the
remaining runs execute plain only, which bounds the invocation's time.
The plain result is handed back to the program, whose stdout is left
untouched and can be checked as usual.

Each paired run appends one JSON line to OUT.jsonl: the seconds per
variant, and whether a variant changed the result (both switches are
meant to be result-neutral).
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
import zlib
from typing import Any, Callable, Dict, List

VARIANTS: Dict[str, Dict[str, str]] = {
    "off": {"REPRO_PROFILE": "0", "REPRO_CHECK": "0"},
    "profile": {"REPRO_PROFILE": "1", "REPRO_CHECK": "0"},
    "check": {"REPRO_PROFILE": "0", "REPRO_CHECK": "1"},
}


def result_summary(result: Any) -> tuple:
    """Exact simulated runtimes of a run or of every tenant of a scenario."""
    tenants = getattr(result, "tenants", None)
    if tenants is None:
        return (float(result.runtime_s).hex(),)
    return tuple(
        float(t.result.runtime_s).hex() if t.result is not None else "-"
        for t in tenants
    )


def paired(fn: Callable, clear_banks: Callable[[], None], out_path: str,
           deadline: float) -> Callable:
    """Wrap ``fn`` so each call runs once per variant and logs the times."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if time.monotonic() > deadline:
            return fn(*args, **kwargs)
        rng = random.Random(zlib.crc32(repr((args, kwargs)).encode()))
        order = rng.sample(list(VARIANTS), len(VARIANTS))
        results, elapsed = {}, {}
        for name in order:
            os.environ.update(VARIANTS[name])
            clear_banks()
            start = time.perf_counter()
            results[name] = fn(*args, **kwargs)
            elapsed[name] = time.perf_counter() - start
        os.environ.update(VARIANTS["off"])
        plain = result_summary(results["off"])
        record = {
            "seconds": elapsed,
            "mismatched": any(result_summary(r) != plain for r in results.values()),
        }
        with open(out_path, "a") as fh:
            fh.write(json.dumps(record) + "\n")
        return results["off"]

    return wrapper


def main(argv: List[str]) -> int:
    if len(argv) < 3 or argv[2] != "--":
        print("usage: overhead.py OUT.jsonl SECONDS -- <repro args>", file=sys.stderr)
        return 2
    out_path, seconds, cli_args = argv[0], float(argv[1]), argv[3:]
    deadline = time.monotonic() + seconds
    import repro.cli
    from repro.experiments import runner, scenario_runner
    from repro.workloads.streambank import clear_stream_banks

    runner.execute_run = paired(
        runner.execute_run, clear_stream_banks, out_path, deadline
    )
    scenario_runner.execute_scenario = paired(
        scenario_runner.execute_scenario, clear_stream_banks, out_path, deadline
    )
    return repro.cli.main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
