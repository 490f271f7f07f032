"""Tests for the per-phase engine profiler (:mod:`repro.sim.profile`).

The contract under test: every tenant times its epochs, the timer
observes and never perturbs (the engine goldens pin results with it
running), and the recorded phases account for the full bracketed epoch
time.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.experiments.runner import RunSpec, build_simulation, execute_run
from repro.sim.profile import PHASES, PhaseTimer, run_profiled


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


class TestAlwaysOn:
    @pytest.mark.parametrize("policy", ["thp", "carrefour-lp"])
    def test_every_run_times_its_epochs(self, quick_config, policy):
        sim = build_simulation(RunSpec("Kmeans", "A", policy), quick_config)
        assert isinstance(sim.profiler, PhaseTimer)
        result = sim.run()
        assert sim.profiler.n_epochs == len(result.epoch_times_s)
        assert sim.profiler.total_s > 0.0

    def test_leftover_profile_switch_is_ignored(self, quick_config, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "0")
        spec = RunSpec("Kmeans", "A", "thp")
        assert build_simulation(spec, quick_config).profiler is not None


class TestRunProfiled:
    def test_phases_account_for_epochs(self, quick_config):
        result, timer = run_profiled("Kmeans", "A", "thp", quick_config)
        assert timer.n_epochs == len(result.epoch_times_s)
        assert timer.total_s > 0.0
        assert timer.total_s == pytest.approx(sum(timer.phase_s.values()))
        assert all(seconds >= 0.0 for seconds in timer.phase_s.values())

    def test_counts_tlb_evaluations_and_memo_hits(self, quick_config):
        _, timer = run_profiled("Kmeans", "A", "thp", quick_config)
        counts = timer.summary()["counts"]
        # Symmetric threads share one classified input: the first
        # evaluates it, the others are memo hits.
        assert counts["tlb_evaluations"] >= 1
        assert counts["tlb_memo_hits"] > counts["tlb_evaluations"]

    def test_counts_classifications_and_table_builds(self, quick_config):
        _, timer = run_profiled("Kmeans", "A", "carrefour-lp", quick_config)
        counts = timer.summary()["counts"]
        assert counts["tlb_classifications"] >= counts["tlb_evaluations"]
        # Each Carrefour-LP interval groups its batch at least by
        # backing page and by 4KB granule.
        assert counts["table_builds"] >= 2

    # carrefour-2m samples IBS, so its run also prices the sampling
    # overhead, which run_profiled must price as execute_run does.
    @pytest.mark.parametrize("policy", ["linux-4k", "carrefour-2m"])
    def test_matches_execute_run(self, quick_config, policy):
        plain = execute_run(RunSpec("Kmeans", "B", policy), quick_config)
        profiled, _ = run_profiled("Kmeans", "B", policy, quick_config)
        assert _signature(plain) == _signature(profiled)


class TestProfileCli:
    def test_cli_profile_json(self, tmp_path, capsys):
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
