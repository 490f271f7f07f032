"""Tests for the paper-data transcription and the claim validator."""

import pytest

from repro.experiments import paper_data
from repro.experiments.experiments import run_experiment
from repro.experiments.parallel import GridRunner
from repro.experiments.validation import GRID, _CHECKS, validate_claims
from repro.workloads.registry import FIGURE1_ORDER


class TestPaperData:
    def test_every_claim_has_a_check(self):
        for claim in paper_data.CLAIMS:
            assert claim.claim_id in _CHECKS

    def test_no_orphan_checks(self):
        claim_ids = {c.claim_id for c in paper_data.CLAIMS}
        assert set(_CHECKS) == claim_ids

    def test_table1_cases_are_known_benchmarks(self):
        for key in paper_data.TABLE1:
            bench, machine = key.split("@")
            assert bench in FIGURE1_ORDER
            assert machine in ("A", "B")

    def test_table1_signature_values(self):
        # Spot-check the transcription against the paper's text.
        assert paper_data.TABLE1["CG.D@B"]["perf_improvement"] == -43.0
        assert paper_data.TABLE1["CG.D@B"]["imbalance"]["thp"] == 59.0
        assert paper_data.TABLE1["WC@B"]["fault_pct"]["linux"] == 37.6
        assert paper_data.TABLE1["SSCA.20@A"]["l2walk"]["linux"] == 15.0

    def test_table2_hot_pages(self):
        assert paper_data.TABLE2["CG.D"]["nhp"]["thp"] == 3
        assert paper_data.TABLE2["UA.B"]["psp"]["thp"] == 70.0

    def test_table3_recoveries(self):
        assert paper_data.TABLE3["CG.D@B"]["imbalance"]["carrefour-lp"] == 3
        assert paper_data.TABLE3["UA.B@A"]["lar"]["carrefour-lp"] == 85

    def test_figure1_callouts(self):
        assert paper_data.FIGURE1_CALLOUTS[("WC", "B")] == 109.0
        assert paper_data.FIGURE1_CALLOUTS[("CG.D", "B")] == -43.0


class _RecordedRuns(dict):
    """Results that remember every spec read through them."""

    def __init__(self, runs):
        super().__init__(runs)
        self.reads = set()

    def __getitem__(self, spec):
        self.reads.add(spec)
        return super().__getitem__(spec)


class TestValidation:
    def test_grid_is_exactly_the_runs_the_checks_read(self, quick_config):
        assert len(GRID) == len(set(GRID)) == 33
        runs = _RecordedRuns(GridRunner(quick_config).run(GRID))
        for check in _CHECKS.values():
            check(runs)  # an undeclared read raises KeyError
        assert runs.reads == set(GRID)

    def test_all_claims_pass_at_quick_scale(self, quick_config):
        results = validate_claims(GridRunner(quick_config).run(GRID))
        failing = [r.claim_id for r in results if not r.passed]
        assert not failing, f"claims failing: {failing}"

    def test_report_structure(self, quick_config):
        report = run_experiment("validate", quick_config)
        assert report.experiment_id == "validate"
        assert len(report.rows) == len(paper_data.CLAIMS)
        assert "14/14" in report.title
