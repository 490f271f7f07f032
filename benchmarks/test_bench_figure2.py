"""Regenerates Figure 2: Carrefour-2M vs THP on the affected applications."""

import pytest


@pytest.mark.artifact("figure2")
def test_bench_figure2(report):
    data = report.data
    # Carrefour-2M cannot fix the hot-page effect (CG) or false sharing (UA).
    assert data["B"]["CG.D"]["carrefour-2m"] < -15.0
    assert data["A"]["UA.B"]["carrefour-2m"] < 0.0
    # But it does fix SPECjbb.
    assert (
        data["A"]["SPECjbb"]["carrefour-2m"] > data["A"]["SPECjbb"]["thp"]
    )
