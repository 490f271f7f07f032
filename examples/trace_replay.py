#!/usr/bin/env python3
"""Record an access trace once, replay it under every policy.

The synthetic benchmarks here are calibrated to the paper, but the
library is equally usable on *your* application's behaviour: record (or
import) a per-thread access trace and replay it under any placement
policy.  This example records the CG-like hot-page workload into a
compressed .npz trace, reloads it, and compares policies on the exact
same access sequence.

Run:  python examples/trace_replay.py
"""

import os
import tempfile

from repro.experiments.configs import make_policy
from repro.hardware.machines import machine_b
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation
from repro.workloads.base import WorkloadInstance
from repro.workloads.common import reference_cost
from repro.workloads.regions import HotRegion, PartitionedRegion
from repro.workloads.trace import TraceData, TraceRecorder, TraceWorkloadInstance

MIB = 1024 * 1024


def build_live_workload(machine):
    regions = [
        HotRegion("hot-array", total_bytes=6 * MIB, access_share=0.45),
        PartitionedRegion(
            "slabs", bytes_per_thread=16 * MIB, access_share=0.55, contiguous=True
        ),
    ]
    return WorkloadInstance(
        "cg-like",
        machine,
        regions,
        cost=reference_cost(machine, rho=0.55, cpu_s=0.05),
        total_epochs=12,
    )


def main() -> None:
    machine = machine_b()
    config = SimConfig(stream_length=768, seed=0, ibs_rate=2e-4)

    # 1. Record the workload's accesses once.
    live = build_live_workload(machine)
    trace = TraceRecorder().record(live, stream_length=768)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cg_like_trace.npz")
        trace.save(path)
        size_mb = os.path.getsize(path) / 1e6
        print(
            f"Recorded {len(trace):,} accesses from {trace.n_threads} threads"
            f" over {trace.total_epochs} epochs -> {path} ({size_mb:.1f} MB)"
        )
        reloaded = TraceData.load(path)

    # 2. Replay the reloaded trace under several policies.
    print(f"\n{'policy':14s} {'runtime':>9s} {'imbalance':>9s} {'splits':>7s}")
    results = {}
    for policy_name in ("linux-4k", "thp", "carrefour-lp"):
        replay = TraceWorkloadInstance("cg-like-replay", machine, reloaded)
        result = Simulation(machine, replay, make_policy(policy_name), config).run()
        results[policy_name] = result
        m = result.metrics()
        print(
            f"{policy_name:14s} {m.runtime_s:8.2f}s {m.imbalance_pct:8.0f}%"
            f" {m.pages_split_2m:7d}"
        )

    base = results["linux-4k"]
    lp = results["carrefour-lp"]
    print(
        f"\nOn the replayed trace, Carrefour-LP runs"
        f" {lp.improvement_over(base):+.1f}% vs 4KB pages — every policy"
        "\nsaw byte-for-byte the same access sequence, so the comparison"
        "\nisolates placement effects exactly."
    )


if __name__ == "__main__":
    main()
