#!/usr/bin/env python3
"""Watch Carrefour-LP converge, epoch by epoch.

The paper's figures report end-state averages; this example renders the
*trajectory*: CG.D starts with THP's catastrophic controller imbalance,
the daemon samples for one second, splits the hot pages, interleaves
the pieces — and the imbalance sparkline collapses while epoch times
recover.  Under plain THP nothing ever improves.

Run:  python examples/policy_timeline.py
"""

from repro.experiments.runner import run_benchmark
from repro.experiments.timeline import (
    convergence_epoch,
    epoch_series,
    render_timeline,
)
from repro.sim.config import SimConfig


def main() -> None:
    config = SimConfig.quick(seed=0)
    for policy in ("thp", "carrefour-2m", "carrefour-lp"):
        result = run_benchmark("CG.D", "B", policy, config)
        print()
        print(render_timeline(result))
        series = epoch_series(result)
        settled = convergence_epoch(series.imbalance_pct, target=20.0)
        if settled >= 0:
            print(f"  -> imbalance settled below 20% from epoch {settled}")
        else:
            print("  -> imbalance never settled below 20%")

    print(
        "\nTHP's imbalance is flat and fatal; Carrefour-2M shuffles 2MB"
        "\npages without effect (three hot pages cannot cover eight"
        "\nnodes); Carrefour-LP splits them at the first interval (the"
        "\n'S' marker) and the imbalance collapses within a couple of"
        "\nepochs."
    )


if __name__ == "__main__":
    main()
