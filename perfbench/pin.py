"""Pin the reference outputs the benchmark checks every invocation against.

Usage, from the root of a checkout::

    python3 perfbench/pin.py --workload figure3 --seeds 0 1 2

Runs one hermetic cold invocation per seed (on the process pool where the
workload has one) and writes its stdout, plus for the scenario workload the
exact per-tenant digest, to ``perfbench/reference/<workload>.json``.
Existing seeds are kept unless re-pinned.  Re-pin only when a change to
the program's results is intended.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import List

import run


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(run.WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    path = run.REFERENCE_DIR / f"{args.workload}.json"
    pinned = json.loads(path.read_text()) if path.is_file() else {}
    scratch_root = run.ROOT / ".perfbench"
    scratch_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="pin-", dir=scratch_root))
    try:
        for seed in args.seeds:
            runner = run.Runner(work, time.monotonic() + run.DEADLINE_S)
            check = run.OutputCheck(None)
            bench = run.Bench(args.workload, seed, runner, check)
            command = run.cli(bench.workload.argv(seed, run.pool_jobs()))
            inv, _ = bench.cold(f"seed {seed}", command)
            if check.failed:
                return 1
            pinned[str(seed)] = check.expected
            print(f"pinned {args.workload} seed {seed} ({inv.wall_s:.2f} s cold)")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
