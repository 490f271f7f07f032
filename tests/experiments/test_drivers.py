"""Structure tests for the experiment drivers, with canned results.

Every driver is a generator: these tests prime it for its grid, send
it a :class:`FakeRuns` of exactly that grid, and check the report's
shape (headers, row counts, data payload) and which runs the driver
read, without paying for real simulations.
"""

import pytest

from repro.experiments import experiments as exp_mod
from repro.experiments import runner as runner_mod
from repro.experiments.parallel import GridRunner
from repro.experiments.runner import canonical_machine
from repro.hardware.counters import CounterBank
from repro.options import CACHE_ENABLE_ENV
from repro.sim.results import RunMetrics
from repro.sim.tracker import HotPageStats
from repro.workloads.registry import AFFECTED_SET, FIGURE1_ORDER, UNAFFECTED_SET


class FakeResult:
    """Duck-typed stand-in for SimulationResult."""

    def __init__(self, runtime=1.0):
        self.runtime_s = runtime
        self.bank = CounterBank(2, 4)
        self.hot_stats = HotPageStats(1.0, 0, 5.0, 1.0)
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


def fake_result(spec):
    # Vary runtime per policy so improvements are nonzero.
    return FakeResult({"linux-4k": 2.0, "thp": 1.5}.get(spec.policy, 1.0))


class FakeRuns(dict):
    """One grid's canned results; records every spec the driver reads."""

    def __init__(self, specs):
        super().__init__((spec, fake_result(spec)) for spec in specs)
        self.reads = set()

    def __getitem__(self, spec):
        self.reads.add(spec)
        return super().__getitem__(spec)


def drive(name):
    """Prime driver ``name``, send it a :class:`FakeRuns` of the grid it
    yields, and return its report and those runs.  The driver must
    return its report at once: it yields one grid."""
    driver = exp_mod.EXPERIMENTS[name]()
    runs = FakeRuns(next(driver))
    with pytest.raises(StopIteration) as done:
        driver.send(runs)
    return done.value.value, runs


class TestFigureDrivers:
    def test_figure1_covers_all_benchmarks(self):
        report, _ = drive("figure1")
        assert len(report.rows) == len(FIGURE1_ORDER)
        assert report.headers == ["benchmark", "machine A", "machine B"]
        assert set(report.data) == {"A", "B"}
        assert set(report.data["A"]) == set(FIGURE1_ORDER)

    def test_figure2_affected_set(self):
        report, _ = drive("figure2")
        assert [row[0] for row in report.rows] == AFFECTED_SET
        assert len(report.headers) == 1 + 2 * 2  # two policies x two machines

    def test_figure3_policies(self):
        report, _ = drive("figure3")
        assert "carrefour-lp (A)" in report.headers

    def test_figure4_baseline_is_thp(self):
        _, runs = drive("figure4")
        assert "thp" in {s.policy for s in runs if s.workload == "CG.D"}
        assert "linux-4k" not in {s.policy for s in runs}

    def test_figure5_unaffected_set(self):
        report, _ = drive("figure5")
        assert [row[0] for row in report.rows] == UNAFFECTED_SET

    def test_table1_five_cases(self):
        report, _ = drive("table1")
        assert len(report.rows) == 5
        assert "CG.D@B" in report.data

    def test_table2_three_by_three(self):
        report, _ = drive("table2")
        assert len(report.rows) == 9  # 3 workloads x 3 policies

    def test_table3_uses_steady_metrics(self):
        report, _ = drive("table3")
        assert "steady" in report.title
        assert report.data["CG.D@B"]["carrefour-lp"]["lar"] == 50.0

    def test_overhead_covers_everything(self):
        report, _ = drive("overhead")
        assert len(report.rows) == len(FIGURE1_ORDER)

    def test_verylarge_uses_1g_backing(self):
        _, runs = drive("verylarge")
        assert any(spec.backing_1g for spec in runs)


class TestOneGrid:
    @pytest.mark.parametrize("name", sorted(exp_mod.EXPERIMENTS))
    def test_one_grid_and_every_declared_run_read(self, name):
        """Each driver yields one grid and reads exactly that grid: an
        undeclared read would be a ``KeyError``, and a declared run
        nobody reads is wasted simulation."""
        report, runs = drive(name)
        assert report.experiment_id == name
        assert runs.reads == set(runs)

    def test_ablations_sweep_policy_params(self):
        for name in ("ablation-hot", "ablation-budget"):
            _, runs = drive(name)
            assert len(runs) == 5
            assert sum(not spec.params for spec in runs) == 1  # the baseline
            assert len({spec.params for spec in runs}) == 5


class TestTheReproductionIsOneGrid:
    def test_all_artifacts_make_one_executor_call(self, monkeypatch):
        """The 15 artifacts declare 586 runs, 231 of them distinct, over
        41 stream banks: one ``GridRunner.run`` call simulates each
        distinct run once, bank after bank, and renders every report."""
        monkeypatch.setenv(CACHE_ENABLE_ENV, "0")
        grids, executed = [], []
        run = GridRunner.run

        def spy(self, specs):
            grids.append(list(specs))
            return run(self, grids[-1])

        def canned(spec, config):
            executed.append(spec)
            return fake_result(spec)

        monkeypatch.setattr(GridRunner, "run", spy)
        monkeypatch.setattr(runner_mod, "execute_run", canned)
        reports = exp_mod.run_experiments(list(exp_mod.EXPERIMENTS))

        assert list(reports) == list(exp_mod.EXPERIMENTS)
        assert [r.experiment_id for r in reports.values()] == list(reports)
        (grid,) = grids
        assert len(grid) == 586
        assert len(executed) == len(set(executed)) == len(set(grid)) == 231
        banks = [
            (s.workload, canonical_machine(s.machine), s.backing_1g)
            for s in executed
        ]
        visits = 1 + sum(a != b for a, b in zip(banks, banks[1:]))
        assert visits == len(set(banks)) == 41


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
