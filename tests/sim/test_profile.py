"""Tests for the per-phase engine profiler (:mod:`repro.sim.profile`).

The contract under test: profiling observes, never perturbs.  A
profiled run must be bit-identical to an unprofiled one and share its
cache entries, and the recorded phases must account for the full
bracketed epoch time.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.cli import main as cli_main
from repro.experiments.cache import normalized_config
from repro.experiments.runner import execute_run
from repro.options import PROFILE_ENV
from repro.sim.config import SimConfig
from repro.sim.profile import (
    PHASES,
    PhaseTimer,
    profile_enabled,
    run_profiled,
)


def _signature(result):
    """Everything the determinism guarantee covers, comparably packed."""
    return (
        result.runtime_s,
        tuple(result.epoch_times_s),
        result.bank.total("tlb_misses"),
        result.bank.total("page_faults_4k"),
        result.bank.total("page_faults_2m"),
        result.bank.total("time_dram_s"),
        result.bank.total("time_walk_s"),
        result.bank.total("time_ibs_s"),
        float(sum(e.traffic.sum() for e in result.bank.epochs)),
    )


class TestPhaseTimer:
    def test_laps_accumulate(self):
        timer = PhaseTimer()
        timer.epoch_start()
        timer.lap("premap")
        timer.lap("streams")
        timer.epoch_end()
        timer.epoch_start()
        timer.lap("premap")
        timer.epoch_end()
        assert timer.n_epochs == 2
        assert timer.phase_s["premap"] >= 0.0
        assert timer.total_s == pytest.approx(sum(timer.phase_s.values()))

    def test_unknown_phase_rejected(self):
        timer = PhaseTimer()
        timer.epoch_start()
        with pytest.raises(ValueError):
            timer.lap("warp-drive")

    def test_lap_outside_epoch_rejected(self):
        with pytest.raises(ValueError):
            PhaseTimer().lap("premap")
        with pytest.raises(ValueError):
            PhaseTimer().epoch_end()

    def test_summary_shape(self):
        timer = PhaseTimer()
        timer.epoch_start()
        timer.lap("streams")
        timer.epoch_end()
        summary = timer.summary()
        assert summary["n_epochs"] == 1
        assert set(summary["phases_s"]) == set(PHASES)
        assert set(summary["phases_pct"]) == set(PHASES)
        assert summary["total_s"] >= 0.0

    def test_render_lists_all_phases(self):
        timer = PhaseTimer()
        timer.epoch_start()
        timer.epoch_end()
        text = timer.render()
        for phase in PHASES:
            assert phase in text


class TestProfileEnabled:
    def test_defaults_off(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        assert not profile_enabled(SimConfig())
        assert not profile_enabled(None)

    def test_config_flag(self, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        assert profile_enabled(SimConfig(profile=True))

    def test_env_wins_on(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "1")
        assert profile_enabled(SimConfig(profile=False))

    def test_env_wins_off(self, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "0")
        assert not profile_enabled(SimConfig(profile=True))


class TestResultNeutrality:
    def test_env_profiled_run_bit_identical(self, quick_settings, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        plain = execute_run("Kmeans", "A", "thp", quick_settings)
        monkeypatch.setenv(PROFILE_ENV, "1")
        profiled = execute_run("Kmeans", "A", "thp", quick_settings)
        assert _signature(plain) == _signature(profiled)

    def test_config_profiled_run_bit_identical(self, quick_settings, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        plain = execute_run("Kmeans", "A", "carrefour-lp", quick_settings)
        cfg = dataclasses.replace(quick_settings.config, profile=True)
        profiled = execute_run(
            "Kmeans", "A", "carrefour-lp",
            dataclasses.replace(quick_settings, config=cfg),
        )
        assert _signature(plain) == _signature(profiled)

    def test_profile_flag_shares_cache_entries(self, quick_settings):
        cfg_on = dataclasses.replace(quick_settings.config, profile=True)
        on = dataclasses.replace(quick_settings, config=cfg_on)
        assert normalized_config(cfg_on) == normalized_config(quick_settings.config)
        assert on.cache_key("CG.D", "machine-A", "thp", False) == (
            quick_settings.cache_key("CG.D", "machine-A", "thp", False)
        )
        assert on.fingerprint("CG.D", "machine-A", "thp", False) == (
            quick_settings.fingerprint("CG.D", "machine-A", "thp", False)
        )


class TestRunProfiled:
    def test_phases_account_for_epochs(self, quick_settings, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        result, timer = run_profiled("Kmeans", "A", "thp", quick_settings)
        assert timer.n_epochs == len(result.epoch_times_s)
        assert timer.total_s > 0.0
        assert timer.total_s == pytest.approx(sum(timer.phase_s.values()))
        assert all(seconds >= 0.0 for seconds in timer.phase_s.values())

    def test_counts_tlb_evaluations_and_memo_hits(self, quick_settings, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        _, timer = run_profiled("Kmeans", "A", "thp", quick_settings)
        counts = timer.summary()["counts"]
        # Symmetric threads share one classified input: the first
        # evaluates it, the others are memo hits.
        assert counts["tlb_evaluations"] >= 1
        assert counts["tlb_memo_hits"] > counts["tlb_evaluations"]

    def test_counts_classifications_and_table_builds(
        self, quick_settings, monkeypatch
    ):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        _, timer = run_profiled("Kmeans", "A", "carrefour-lp", quick_settings)
        counts = timer.summary()["counts"]
        assert counts["tlb_classifications"] >= counts["tlb_evaluations"]
        # Each Carrefour-LP interval groups its batch at least by
        # backing page and by 4KB granule.
        assert counts["table_builds"] >= 2

    def test_forced_on_despite_env_off(self, quick_settings, monkeypatch):
        monkeypatch.setenv(PROFILE_ENV, "0")
        result, timer = run_profiled("Kmeans", "A", "thp", quick_settings)
        assert timer.n_epochs == len(result.epoch_times_s)

    # carrefour-2m samples IBS, so its run also prices the sampling
    # overhead a profiled run must not alter.
    @pytest.mark.parametrize("policy", ["linux-4k", "carrefour-2m"])
    def test_matches_unprofiled_execute_run(
        self, quick_settings, monkeypatch, policy
    ):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        plain = execute_run("Kmeans", "B", policy, quick_settings)
        profiled, _ = run_profiled("Kmeans", "B", policy, quick_settings)
        assert _signature(plain) == _signature(profiled)


class TestProfileCli:
    def test_cli_profile_json(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv(PROFILE_ENV, raising=False)
        out_path = tmp_path / "profile.json"
        rc = cli_main(
            ["profile", "Kmeans", "--quick", "--json", str(out_path)]
        )
        assert rc == 0
        captured = capsys.readouterr().out
        assert "phase" in captured
        payload = json.loads(out_path.read_text())
        assert payload["run"] == "Kmeans@A/thp"
        profile = payload["profile"]
        assert set(profile["phases_s"]) == set(PHASES)
        assert profile["total_s"] == pytest.approx(
            sum(profile["phases_s"].values()), abs=1e-4
        )
        assert payload["simulated_runtime_s"] > 0
        counts = profile["counts"]
        assert set(counts) == {
            "tlb_evaluations",
            "tlb_memo_hits",
            "tlb_classifications",
            "table_builds",
        }
        assert counts["tlb_evaluations"] >= 1
        # Every model lookup follows one classification; thp has no
        # policy loop, so it groups no samples.
        assert counts["tlb_classifications"] == (
            counts["tlb_evaluations"] + counts["tlb_memo_hits"]
        )
        assert counts["table_builds"] == 0
        for name, count in counts.items():
            assert f"{name:<18} {count:>10}" in captured
