"""Regenerates Table 3: LAR and imbalance under the four policies."""

import pytest


@pytest.mark.artifact("table3")
def test_bench_table3(report):
    data = report.data
    cg = data["CG.D@B"]
    # THP destroys CG's balance; Carrefour-2M cannot restore it;
    # Carrefour-LP restores it almost entirely (paper: 59% -> 3%).
    assert cg["linux-4k"]["imbalance"] < 10
    assert cg["thp"]["imbalance"] > 40
    assert cg["carrefour-2m"]["imbalance"] > 15
    assert cg["carrefour-lp"]["imbalance"] < 12
    ua = data["UA.B@A"]
    # THP drops UA's LAR; Carrefour-2M keeps it low; LP restores it.
    assert ua["linux-4k"]["lar"] > 85
    assert ua["thp"]["lar"] < 80
    assert ua["carrefour-2m"]["lar"] <= ua["thp"]["lar"] + 3
    assert ua["carrefour-lp"]["lar"] > ua["thp"]["lar"] + 5
