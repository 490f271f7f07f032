"""Regenerates the claim checklist: each paper claim checked on one grid."""

from repro.experiments.validation import validate


def test_bench_validate(benchmark, settings, report_sink):
    report = benchmark.pedantic(validate, args=(settings,), rounds=1, iterations=1)
    report_sink(report)
    failed = [claim for claim, result in report.data.items() if not result.passed]
    assert not failed, f"claims that do not hold: {failed}"
