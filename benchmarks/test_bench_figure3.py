"""Regenerates Figure 3: Carrefour-LP vs THP on the affected applications."""

import pytest


@pytest.mark.artifact("figure3")
def test_bench_figure3(report):
    data = report.data
    # Carrefour-LP recovers the applications that suffered under THP.
    for bench, machine in (("CG.D", "B"), ("UA.B", "A"), ("UA.C", "B")):
        lp = data[machine][bench]["carrefour-lp"]
        thp = data[machine][bench]["thp"]
        assert lp > thp, f"{bench}@{machine}: LP ({lp:+.1f}) must beat THP ({thp:+.1f})"
    assert data["B"]["CG.D"]["carrefour-lp"] > -16.0
