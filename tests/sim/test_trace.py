"""Decision-trace tests: neutrality, the trace file switch, JSONL shape."""

import json

import numpy as np
import pytest

from repro.experiments.runner import RunSpec, build_simulation, run_benchmark
from repro.options import TRACE_FILE_ENV
from repro.sim.decisions import MigratePages, Outcome
from repro.sim.trace import DecisionTrace, run_traced


def batch(*page_ids):
    ids = np.array(page_ids, dtype=np.int64)
    return MigratePages(ids, np.zeros_like(ids), 1 << 30)


class TestDecisionTrace:
    def _tally(self):
        trace = DecisionTrace({"policy": "x"})
        trace.record(
            1.0, 0, "a", batch(5, 9, 7), Outcome(True, bytes_moved=8192, count=2)
        )
        trace.record(
            2.0, 1, "b", batch(6), Outcome(False, reason="conflict")
        )
        return trace

    def test_counts_by_kind(self):
        assert self._tally().counts() == {"MigratePages": 2}

    def test_render_mentions_applied_and_skipped(self):
        text = self._tally().render()
        assert "2 decisions recorded" in text
        assert "1 applied" in text and "1 skipped" in text

    def test_jsonl_shape(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        self._tally().write_jsonl(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        header = json.loads(lines[0])
        assert header == {"trace": {"policy": "x"}}
        rec = json.loads(lines[1])
        assert rec["decision"] == {
            "kind": "MigratePages",
            "n_pages": 3,
            "page_lo": 5,
            "page_hi": 9,
            "budget_bytes": 1 << 30,
        }
        assert rec["applied"] is True and rec["bytes"] == 8192
        assert rec["count"] == 2
        assert json.loads(lines[2])["reason"] == "conflict"

    def test_flush_env_appends(self, tmp_path, monkeypatch):
        path = tmp_path / "env.jsonl"
        monkeypatch.setenv(TRACE_FILE_ENV, str(path))
        self._tally().flush_env()
        self._tally().flush_env()
        assert len(path.read_text().splitlines()) == 6

    def test_flush_env_noop_when_unset(self, monkeypatch):
        monkeypatch.delenv(TRACE_FILE_ENV, raising=False)
        self._tally().flush_env()  # must not raise or write anywhere


class TestTraceNeutrality:
    def test_traced_run_bit_identical(self, quick_config):
        baseline = run_benchmark("Kmeans", "A", "carrefour-2m", quick_config)
        result, trace = run_traced(
            "Kmeans", "A", "carrefour-2m", quick_config
        )
        assert result.runtime_s == baseline.runtime_s
        assert result.epoch_times_s == baseline.epoch_times_s
        assert trace.records, "daemon policy must have recorded decisions"


def _headers(path):
    return [
        json.loads(line)["trace"]
        for line in path.read_text().splitlines()
        if line.startswith('{"trace"')
    ]


class TestTraceFile:
    """``REPRO_TRACE_FILE`` alone turns tracing on."""

    def test_no_trace_file_no_tracer(self, quick_config, monkeypatch):
        monkeypatch.delenv(TRACE_FILE_ENV, raising=False)
        monkeypatch.setenv("REPRO_TRACE", "1")  # retired; not read
        sim = build_simulation(RunSpec("Kmeans", "A", "carrefour-2m"), quick_config)
        assert sim.tracer is None
        sim.run()
        assert sim.tracer is None

    def test_trace_file_appends_each_run(
        self, quick_config, monkeypatch, tmp_path
    ):
        path = tmp_path / "runs.jsonl"
        monkeypatch.setenv(TRACE_FILE_ENV, str(path))
        monkeypatch.setenv("REPRO_TRACE", "0")  # retired; not read
        records = 0
        for policy in ("carrefour-2m", "thp"):
            sim = build_simulation(RunSpec("Kmeans", "A", policy), quick_config)
            assert isinstance(sim.tracer, DecisionTrace)
            sim.run()
            records += len(sim.tracer.records)
        assert [h["policy"] for h in _headers(path)] == ["carrefour-2m", "thp"]
        assert records > 0
        assert len(path.read_text().splitlines()) == records + 2

    def test_run_traced_keeps_the_file_trace(
        self, quick_config, monkeypatch, tmp_path
    ):
        path = tmp_path / "traced.jsonl"
        monkeypatch.setenv(TRACE_FILE_ENV, str(path))
        _, trace = run_traced("Kmeans", "A", "carrefour-2m", quick_config)
        assert trace.records
        assert len(_headers(path)) == 1
        assert len(path.read_text().splitlines()) == len(trace.records) + 1


class TestRunTraced:
    def test_context_header(self, quick_config):
        _, trace = run_traced("Kmeans", "A", "thp", quick_config)
        assert trace.context["workload"] == "Kmeans"
        assert trace.context["policy"] == "thp"
        assert trace.context["seed"] == quick_config.seed

    def test_composed_policy_traces_sources(self, quick_config):
        _, trace = run_traced(
            "Kmeans", "A", "carrefour-2m+replication", quick_config
        )
        sources = {rec["source"] for rec in trace.records}
        assert "carrefour-2m" in sources
        assert "replication" in sources
        kinds = trace.counts()
        assert kinds.get("ReplicatePageTables", 0) >= 1
