"""Regenerates the claim checklist: each paper claim checked on one grid."""

import pytest


@pytest.mark.artifact("validate")
def test_bench_validate(report):
    failed = [claim for claim, result in report.data.items() if not result.passed]
    assert not failed, f"claims that do not hold: {failed}"
