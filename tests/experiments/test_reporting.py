"""Tests for report rendering."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.reporting import Report, format_table


class TestFormatTable:
    def test_alignment(self):
        out = format_table(["a", "bench"], [["1", "x"], ["22", "yy"]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines)

    def test_row_width_mismatch(self):
        with pytest.raises(ConfigurationError):
            format_table(["a", "b"], [["1"]])

    def test_empty_headers(self):
        with pytest.raises(ConfigurationError):
            format_table([], [])


class TestReport:
    def test_render(self):
        report = Report(
            experiment_id="figure9",
            title="test",
            headers=["bench", "val"],
            rows=[["CG", "+1.0"]],
            notes=["a note"],
        )
        out = report.render()
        assert "figure9" in out
        assert "CG" in out
        assert "a note" in out
