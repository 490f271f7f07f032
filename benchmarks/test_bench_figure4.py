"""Regenerates Figure 4: component breakdown over Linux with THP."""

import pytest


@pytest.mark.artifact("figure4")
def test_bench_figure4(report):
    data = report.data
    # For CG the reactive path (hot-page splitting) is what recovers
    # performance over plain THP.
    assert data["B"]["CG.D"]["carrefour-lp"] > 15.0
    assert data["B"]["CG.D"]["reactive-only"] > 15.0
    # Conservative-only starts from 4KB pages, avoiding CG's hot pages
    # entirely.
    assert data["B"]["CG.D"]["conservative-only"] > 15.0
    # Carrefour-LP is the best (or close to the best) configuration.
    for machine in ("A", "B"):
        for bench, per_policy in data[machine].items():
            best = max(per_policy.values())
            assert per_policy["carrefour-lp"] > best - 25.0, (
                f"{bench}@{machine}: LP far from best"
            )
