"""Regenerates Table 2: PAMUP / NHP / PSP / imbalance / LAR, machine A."""

import pytest


@pytest.mark.artifact("table2")
def test_bench_table2(report):
    data = report.data
    cg = data["CG.D"]
    assert cg["linux-4k"].n_hot_pages == 0
    assert cg["thp"].n_hot_pages >= 1
    assert cg["carrefour-2m"].n_hot_pages >= 1  # migration cannot fix them
    ua = data["UA.B"]
    assert ua["thp"].psp_pct > ua["linux-4k"].psp_pct + 30
    jbb = data["SPECjbb"]
    assert jbb["carrefour-2m"].imbalance_pct < jbb["thp"].imbalance_pct
