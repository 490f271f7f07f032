#!/usr/bin/env python3
"""Writing a custom placement policy against the public API.

Implements the classic static alternative to Carrefour — interleave
every page round-robin across nodes at allocation time — and compares
it against the paper's policies on a workload with a pre-existing NUMA
problem (a master-initialised shared matrix, like Metis pca).

Interleaving fixes imbalance but sacrifices the locality a smarter
policy could recover; that trade-off is visible directly in the LAR
column.

Run:  python examples/custom_policy.py
"""

import numpy as np

from repro.experiments.configs import make_policy
from repro.hardware.machines import machine_b
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation
from repro.sim.decisions import MigratePages
from repro.sim.policy import PlacementPolicy
from repro.core.metrics import PageSampleTable
from repro.workloads.base import WorkloadInstance
from repro.workloads.common import reference_cost
from repro.workloads.regions import PartitionedRegion, SharedRegion

MIB = 1024 * 1024


class InterleaveAllPolicy(PlacementPolicy):
    """Migrate every sampled page round-robin across nodes.

    A deliberately blunt instrument: it balances controllers perfectly
    but ignores locality (private pages get scattered too).
    """

    name = "interleave-all"
    interval_s = 1.0

    def __init__(self) -> None:
        self._cursor = 0

    def setup(self, sim) -> None:
        sim.thp.enable_alloc()
        sim.thp.enable_promotion()

    def decide(self, sim, samples, window):
        table = PageSampleTable.from_samples(samples, sim.asp, sim.machine.n_nodes)
        ids = table.ids[sim.asp.backings_live(table.ids)]
        targets = (self._cursor + np.arange(ids.size)) % sim.machine.n_nodes
        self._cursor += int(ids.size)
        # One batch, no budget cap: the executor moves every page,
        # accounts the bytes and sends back an Outcome.
        yield MigratePages(ids, targets, budget_bytes=sim.asp.mapped_bytes())


def build_workload(machine):
    regions = [
        SharedRegion(
            "matrix", total_bytes=512 * MIB, access_share=0.9, master_init=True
        ),
        PartitionedRegion(
            "partials", bytes_per_thread=2 * MIB, access_share=0.1, contiguous=True
        ),
    ]
    return WorkloadInstance(
        "pca-like",
        machine,
        regions,
        cost=reference_cost(machine, rho=0.55, cpu_s=0.05),
        total_epochs=16,
    )


def main() -> None:
    machine = machine_b()
    config = SimConfig(stream_length=768, seed=0, ibs_rate=2e-4)
    policies = [
        make_policy("linux-4k"),
        make_policy("thp"),
        InterleaveAllPolicy(),
        make_policy("carrefour-2m"),
        make_policy("carrefour-lp"),
    ]
    results = {}
    for policy in policies:
        sim = Simulation(machine, build_workload(machine), policy, config)
        results[policy.name] = sim.run()
    baseline = results["linux-4k"]
    print(f"{'policy':16s} {'vs linux':>9s} {'LAR':>5s} {'imbalance':>9s}")
    for name, result in results.items():
        m = result.metrics()
        print(
            f"{name:16s} {result.improvement_over(baseline):+8.1f}% "
            f"{m.lar_pct:4.0f}% {m.imbalance_pct:8.0f}%"
        )
    print(
        "\nThe master-initialised matrix starts entirely on node 0."
        "\nBlind interleaving balances the controllers; Carrefour does"
        "\nthe same for shared pages but keeps single-consumer pages"
        "\nlocal, so it wins on both columns."
    )


if __name__ == "__main__":
    main()
