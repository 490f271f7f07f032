"""Decision-trace tests: neutrality, env overrides, JSONL shape."""

import json

import numpy as np
import pytest

from repro.experiments.runner import run_benchmark
from repro.sim.decisions import MigratePages, Outcome
from repro.sim.trace import (
    TRACE_ENV,
    TRACE_FILE_ENV,
    DecisionTrace,
    run_traced,
    trace_enabled,
)


class TestTraceEnabled:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv(TRACE_ENV, raising=False)
        assert not trace_enabled(None)

    def test_config_flag(self, monkeypatch):
        monkeypatch.delenv(TRACE_ENV, raising=False)

        class Cfg:
            trace = True

        assert trace_enabled(Cfg())

    def test_env_forces_on(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV, "1")
        assert trace_enabled(None)

    def test_env_forces_off_over_config(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV, "0")

        class Cfg:
            trace = True

        assert not trace_enabled(Cfg())


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
    def test_traced_run_bit_identical(self, quick_settings):
        baseline = run_benchmark("Kmeans", "A", "carrefour-2m", quick_settings)
        result, trace = run_traced(
            "Kmeans", "A", "carrefour-2m", quick_settings
        )
        assert result.runtime_s == baseline.runtime_s
        assert result.epoch_times_s == baseline.epoch_times_s
        assert trace.records, "daemon policy must have recorded decisions"

    def test_trace_excluded_from_cache_key(self, quick_settings):
        import dataclasses

        from repro.experiments.runner import RunSettings

        traced = RunSettings(
            config=dataclasses.replace(quick_settings.config, trace=True),
            seed=quick_settings.seed,
        )
        assert traced.fingerprint(
            "Kmeans", "machine-A", "thp", False
        ) == quick_settings.fingerprint("Kmeans", "machine-A", "thp", False)

    def test_untraced_run_has_no_tracer(self, quick_settings, monkeypatch):
        monkeypatch.delenv(TRACE_ENV, raising=False)
        result = run_benchmark(
            "Kmeans", "A", "thp", quick_settings, use_cache=False
        )
        assert result is not None  # plain runs carry no trace state

    def test_env_off_does_not_break_run_traced(
        self, quick_settings, monkeypatch
    ):
        # REPRO_TRACE=0 suppresses the engine-owned tracer; run_traced
        # installs its own, so explicit trace runs still observe.
        monkeypatch.setenv(TRACE_ENV, "0")
        _, trace = run_traced("Kmeans", "A", "carrefour-2m", quick_settings)
        assert isinstance(trace, DecisionTrace)
        assert trace.records


class TestRunTraced:
    def test_context_header(self, quick_settings):
        _, trace = run_traced("Kmeans", "A", "thp", quick_settings)
        assert trace.context["workload"] == "Kmeans"
        assert trace.context["policy"] == "thp"
        assert trace.context["seed"] == quick_settings.seed

    def test_composed_policy_traces_sources(self, quick_settings):
        _, trace = run_traced(
            "Kmeans", "A", "carrefour-2m+replication", quick_settings
        )
        sources = {rec["source"] for rec in trace.records}
        assert "carrefour-2m" in sources
        assert "replication" in sources
        kinds = trace.counts()
        assert kinds.get("ReplicatePageTables", 0) >= 1
