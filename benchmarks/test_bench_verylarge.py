"""Regenerates Section 4.4: the 1GB-page study (SSCA, streamcluster)."""

import pytest


@pytest.mark.artifact("verylarge")
def test_bench_verylarge(report):
    data = report.data
    # Paper: streamcluster degrades ~4x with 1GB pages, SSCA by 34%.
    assert data["streamcluster"]["slowdown-1g"] > 1.5
    assert data["SSCA.20"]["1g"] < -15.0
    # Carrefour-LP (with 1GB splitting support) recovers ground.
    assert data["streamcluster"]["lp-on-1g"] > data["streamcluster"]["1g"]
