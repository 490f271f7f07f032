"""Regenerates Figure 1: THP improvement over Linux, 19 benchmarks x 2 machines."""

import pytest


@pytest.mark.artifact("figure1")
def test_bench_figure1(report):
    # Shape assertions from the paper.
    data = report.data
    assert data["B"]["CG.D"] < -15.0, "THP must hurt CG.D on machine B"
    assert data["B"]["WC"] > 40.0, "THP must strongly help WC on machine B"
    assert data["A"]["SSCA.20"] > 5.0, "THP must help SSCA on machine A"
    assert data["A"]["UA.B"] < 0.0, "THP must hurt UA.B"
