"""Structure tests for the experiment drivers, with a stubbed executor.

These tests verify every driver's report shape (headers, row counts,
data payload) without paying for real simulations: ``GridRunner.run``
is monkeypatched to return canned results for exactly the grid it is
handed, and records which of them the driver reads.
"""

import pytest

from repro.experiments import experiments as exp_mod
from repro.experiments.parallel import GridRunner
from repro.experiments.runner import RunSettings
from repro.hardware.counters import CounterBank
from repro.sim.results import RunMetrics
from repro.workloads.registry import AFFECTED_SET, FIGURE1_ORDER, UNAFFECTED_SET


class FakeResult:
    """Duck-typed stand-in for SimulationResult."""

    def __init__(self, runtime=1.0):
        self.runtime_s = runtime
        self.bank = CounterBank(2, 4)
        self.hot_stats = None
        self.action_log = []
        self.final_page_counts = {}

    def metrics(self):
        return RunMetrics(
            runtime_s=self.runtime_s,
            lar_pct=50.0,
            imbalance_pct=10.0,
            pct_l2_walk=1.0,
            fault_time_total_s=0.1,
            max_fault_pct=1.0,
            tlb_misses=0.0,
            dram_requests=1.0,
            pamup_pct=1.0,
            n_hot_pages=0,
            psp_pct=5.0,
        )

    def improvement_over(self, other):
        return (other.runtime_s / self.runtime_s - 1.0) * 100.0

    def steady_lar(self, *a):
        return 50.0

    def steady_imbalance(self, *a):
        return 10.0


class FakeRuns(dict):
    """One stubbed grid's results; records every spec the driver reads."""

    def __init__(self, specs):
        # Vary runtime per policy so improvements are nonzero.
        super().__init__(
            (spec, FakeResult({"linux-4k": 2.0, "thp": 1.5}.get(spec.policy, 1.0)))
            for spec in specs
        )
        self.reads = set()

    def __getitem__(self, spec):
        self.reads.add(spec)
        return super().__getitem__(spec)


@pytest.fixture
def stub_runner(monkeypatch):
    """Every ``GridRunner.run`` call's grid, as a :class:`FakeRuns`."""
    calls = []

    def fake_run(self, specs, use_cache=True):
        calls.append(FakeRuns(specs))
        return calls[-1]

    monkeypatch.setattr(GridRunner, "run", fake_run)
    return calls


@pytest.fixture
def settings():
    return RunSettings.quick()


class TestFigureDrivers:
    def test_figure1_covers_all_benchmarks(self, stub_runner, settings):
        report = exp_mod.figure1(settings)
        assert len(report.rows) == len(FIGURE1_ORDER)
        assert report.headers == ["benchmark", "machine A", "machine B"]
        assert set(report.data) == {"A", "B"}
        assert set(report.data["A"]) == set(FIGURE1_ORDER)

    def test_figure2_affected_set(self, stub_runner, settings):
        report = exp_mod.figure2(settings)
        assert [row[0] for row in report.rows] == AFFECTED_SET
        assert len(report.headers) == 1 + 2 * 2  # two policies x two machines

    def test_figure3_policies(self, stub_runner, settings):
        report = exp_mod.figure3(settings)
        assert "carrefour-lp (A)" in report.headers

    def test_figure4_baseline_is_thp(self, stub_runner, settings):
        exp_mod.figure4(settings)
        (runs,) = stub_runner
        assert "thp" in {s.policy for s in runs if s.workload == "CG.D"}
        assert "linux-4k" not in {s.policy for s in runs}

    def test_figure5_unaffected_set(self, stub_runner, settings):
        report = exp_mod.figure5(settings)
        assert [row[0] for row in report.rows] == UNAFFECTED_SET

    def test_table1_five_cases(self, stub_runner, settings):
        report = exp_mod.table1(settings)
        assert len(report.rows) == 5
        assert "CG.D@B" in report.data

    def test_table2_three_by_three(self, stub_runner, settings):
        report = exp_mod.table2(settings)
        assert len(report.rows) == 9  # 3 workloads x 3 policies

    def test_table3_uses_steady_metrics(self, stub_runner, settings):
        report = exp_mod.table3(settings)
        assert "steady" in report.title
        assert report.data["CG.D@B"]["carrefour-lp"]["lar"] == 50.0

    def test_overhead_covers_everything(self, stub_runner, settings):
        report = exp_mod.overhead(settings)
        assert len(report.rows) == len(FIGURE1_ORDER)

    def test_verylarge_uses_1g_backing(self, stub_runner, settings):
        exp_mod.verylarge(settings)
        (runs,) = stub_runner
        assert any(spec.backing_1g for spec in runs)


class TestOneGrid:
    @pytest.mark.parametrize("name", sorted(exp_mod.EXPERIMENTS))
    def test_one_run_call_and_every_declared_run_read(
        self, stub_runner, settings, name
    ):
        """Each driver hands one grid to one executor call and reads
        exactly that grid: an undeclared read would be a ``KeyError``,
        and a declared run nobody reads is wasted simulation."""
        exp_mod.run_experiment(name, settings)
        (runs,) = stub_runner
        assert runs.reads == set(runs)

    def test_ablations_sweep_policy_params(self, stub_runner, settings):
        exp_mod.run_experiment("ablation-hot", settings)
        exp_mod.run_experiment("ablation-budget", settings)
        for runs in stub_runner:
            assert len(runs) == 5
            assert sum(not spec.params for spec in runs) == 1  # the baseline
            assert len({spec.params for spec in runs}) == 5


class TestRunExperiment:
    def test_registry_complete(self):
        expected = {
            "figure1", "table1", "figure2", "table2", "figure3",
            "figure4", "table3", "figure5", "overhead", "verylarge",
            "lwp", "autonuma", "ablation-hot", "ablation-budget",
            "validate",
        }
        assert set(exp_mod.EXPERIMENTS) == expected
        assert len(expected) == 15

    def test_unknown_experiment(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            exp_mod.run_experiment("figure9")
