"""Regenerates Figure 5: THP and Carrefour-LP on the unaffected apps."""

import pytest


@pytest.mark.artifact("figure5")
def test_bench_figure5(report):
    data = report.data
    # Carrefour-LP does not significantly hurt the unaffected apps.
    for machine in ("A", "B"):
        for bench, per_policy in data[machine].items():
            assert per_policy["carrefour-lp"] > -12.0, (
                f"{bench}@{machine}: LP hurt an unaffected app"
            )
    # EP.C and pca had NUMA issues to begin with: LP helps a lot.
    assert data["B"]["pca"]["carrefour-lp"] > 40.0
    assert data["B"]["EP.C"]["carrefour-lp"] > 5.0
