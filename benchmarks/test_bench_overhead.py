"""Regenerates Section 4.2: Carrefour-LP overhead assessment."""

import pytest
from repro.workloads.registry import UNAFFECTED_SET


@pytest.mark.artifact("overhead")
def test_bench_overhead(report):
    data = report.data
    # LP vs the reactive approach: small overhead across the board
    # (paper: 1-2%, 3.2% worst; allow slack at reduced scale).
    worst_vs_reactive = max(
        entries["reactive-only"]
        for machine in data.values()
        for entries in machine.values()
    )
    assert worst_vs_reactive < 15.0
    # For neutral applications LP must stay near Linux-4K.
    for bench in ("Kmeans", "BT.B", "MG.D", "DC.A"):
        for machine in ("A", "B"):
            assert data[machine][bench]["linux-4k"] < 12.0, (
                f"{bench}@{machine}: LP overhead vs Linux too high"
            )
