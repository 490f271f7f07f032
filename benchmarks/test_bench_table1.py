"""Regenerates Table 1: detailed Linux-vs-THP analysis of five apps."""

import pytest


@pytest.mark.artifact("table1")
def test_bench_table1(report):
    data = report.data
    cg = data["CG.D@B"]
    assert cg["thp"].imbalance_pct > cg["linux"].imbalance_pct + 30
    ua = data["UA.C@B"]
    assert ua["thp"].lar_pct < ua["linux"].lar_pct - 10
    wc = data["WC@B"]
    assert wc["thp"].fault_time_total_s < wc["linux"].fault_time_total_s
    ssca = data["SSCA.20@A"]
    assert ssca["linux"].pct_l2_walk > 8
    assert ssca["thp"].pct_l2_walk < 2
