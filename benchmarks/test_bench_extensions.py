"""Extension benches: LWP sampling and design-choice ablations."""

import pytest


@pytest.mark.artifact("autonuma")
def test_bench_autonuma(report):
    data = report.data
    # AutoNUMA cannot split pages: it inherits THP's CG/UA failures...
    assert data["CG.D@B"]["autonuma"] < -20.0
    assert data["UA.B@A"]["autonuma"] < -5.0
    # ...while Carrefour-LP recovers them.
    assert data["CG.D@B"]["carrefour-lp"] > data["CG.D@B"]["autonuma"] + 15.0
    # Migrate-to-accessor does help the master-initialised case.
    assert data["pca@B"]["autonuma"] > 20.0


@pytest.mark.artifact("lwp")
def test_bench_lwp(report):
    data = report.data
    ssca = data["SSCA.20@A"]
    # Denser LWP samples must not do worse than plain IBS sampling, and
    # should close most of the gap to Carrefour-2M that the reactive
    # misestimation opened.
    assert ssca["carrefour-lp-lwp"] >= ssca["carrefour-lp"] - 3.0


@pytest.mark.artifact("ablation-hot")
def test_bench_ablation_hot_threshold(report):
    data = report.data
    # Disabling hot-page splitting leaves CG's imbalance unfixed.
    assert data["100"]["imbalance"] > data["6"]["imbalance"] + 10.0
    assert data["6"]["improvement"] > data["100"]["improvement"]


@pytest.mark.artifact("ablation-budget")
def test_bench_ablation_migration_budget(report):
    data = report.data
    # More budget converges faster: the starved configuration keeps
    # more residual imbalance than the unbounded one.
    assert data["32"]["imbalance"] >= data["4096"]["imbalance"] - 1.0
    assert data["4096"]["improvement"] >= data["32"]["improvement"] - 3.0
