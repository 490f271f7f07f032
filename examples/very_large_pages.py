#!/usr/bin/env python3
"""The 1GB-page study (paper Section 4.4).

Backs SSCA and streamcluster with hugetlbfs-style 1GB pages on the
8-node machine B and shows the paper's finding: hot-page and
false-sharing effects become pervasive — whole gigabytes of many
threads' data collapse onto one node — and only splitting
(Carrefour-LP) recovers.

Run:  python examples/very_large_pages.py
"""

from repro.experiments.runner import run_benchmark
from repro.sim.config import SimConfig
from repro.vm.layout import PageSize


def main() -> None:
    config = SimConfig.quick(seed=0)
    for workload in ("streamcluster", "SSCA.20"):
        base = run_benchmark(workload, "B", "linux-4k", config)
        rows = [
            ("4KB pages", run_benchmark(workload, "B", "linux-4k", config)),
            ("2MB pages (THP)", run_benchmark(workload, "B", "thp", config)),
            ("1GB pages", run_benchmark(workload, "B", "linux-4k", config,
                                        backing_1g=True)),
            ("1GB + Carrefour-LP", run_benchmark(workload, "B", "carrefour-lp",
                                                 config, backing_1g=True)),
        ]
        print(f"\n=== {workload} on machine B ===")
        print(f"{'config':>20s} {'vs 4KB':>8s} {'imbalance':>9s} "
              f"{'PSP':>5s} {'1G pages kept':>13s}")
        for label, result in rows:
            m = result.metrics()
            giga = m.final_page_counts.get(PageSize.SIZE_1G, 0)
            print(
                f"{label:>20s} {result.improvement_over(base):+7.1f}% "
                f"{m.imbalance_pct:8.0f}% {m.psp_pct:4.0f}% {giga:13d}"
            )
    print(
        "\n1GB pages concentrate entire working sets onto one or two"
        "\nnodes (paper: streamcluster ~4x slower, SSCA -34%)."
        "\nCarrefour-LP's splitting — which libhugetlbfs lacks — is the"
        "\nonly remedy; it demotes the giant pages and re-places the"
        "\npieces."
    )


if __name__ == "__main__":
    main()
