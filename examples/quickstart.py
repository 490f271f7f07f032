#!/usr/bin/env python3
"""Quickstart: run one benchmark under several placement policies.

Reproduces the paper's headline in one screen of output: transparent
huge pages help some applications and badly hurt others, and
Carrefour-LP recovers the losses while keeping the benefits.

Run:  python examples/quickstart.py
"""

from repro.experiments.runner import run_benchmark
from repro.sim.config import SimConfig

POLICIES = ["linux-4k", "thp", "carrefour-2m", "carrefour-lp"]


def main() -> None:
    config = SimConfig.quick(seed=0)

    for workload, machine in [("CG.D", "B"), ("WC", "B")]:
        print(f"\n=== {workload} on machine {machine} ===")
        baseline = run_benchmark(workload, machine, "linux-4k", config)
        print(f"{'policy':14s} {'runtime':>9s} {'vs linux':>9s} "
              f"{'LAR':>5s} {'imbalance':>9s} {'2M pages':>9s}")
        for policy in POLICIES:
            result = run_benchmark(workload, machine, policy, config)
            m = result.metrics()
            huge = m.final_page_counts.get(2 * 1024 * 1024, 0)
            print(
                f"{policy:14s} {m.runtime_s:8.2f}s "
                f"{result.improvement_over(baseline):+8.1f}% "
                f"{m.lar_pct:4.0f}% {m.imbalance_pct:8.0f}% {huge:9d}"
            )

    print(
        "\nTHP doubles WC's performance (fewer page faults, fewer TLB"
        "\nmisses) but cripples CG.D: its hot data coalesces into a few"
        "\n2MB pages that overload one memory controller.  Carrefour-LP"
        "\nsplits the hot pages, interleaves the pieces, and recovers"
        "\nthe loss — without giving up THP where it helps."
    )


if __name__ == "__main__":
    main()
