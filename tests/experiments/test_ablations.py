"""The ablations run through ``RunSpec.params``, the caches and the pool.

The hand-built construction the ablation drivers once used (a policy
object built outside the registry and run straight through
:class:`Simulation`, bypassing both cache layers) is kept here as the
reference: the ``RunSpec`` path must reproduce it bit for bit.
"""

from __future__ import annotations

import pytest

from repro.core.carrefour import CarrefourConfig, CarrefourPolicy
from repro.core.carrefour_lp import CarrefourLpPolicy
from repro.core.reactive import ReactiveConfig
from repro.experiments import runner as runner_mod
from repro.experiments.cache import ResultCache
from repro.experiments.experiments import run_experiment
from repro.experiments.extensions import _budget_spec, _hot_threshold_spec
from repro.experiments.runner import execute_run
from repro.hardware.machines import machine_by_name
from repro.options import CACHE_DIR_ENV
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation
from repro.workloads.registry import get_workload


def _run_custom(workload, machine, policy, config):
    topo = machine_by_name(machine)
    instance = get_workload(workload).instantiate(topo, config.scale, config.seed)
    return Simulation(topo, instance, policy, config).run()


def _hand_built_hot(threshold, seed):
    return CarrefourLpPolicy(
        reactive_config=ReactiveConfig(
            hot_page_pct=threshold,
            split_gain_threshold_pct=1000.0,
            carrefour_gain_threshold_pct=1000.0,
        ),
        seed=seed,
        name=f"lp-hot-{threshold:g}",
    )


def _hand_built_budget(budget_mb, seed):
    return CarrefourPolicy(
        thp=True,
        config=CarrefourConfig(
            max_migration_bytes_per_interval=budget_mb * 1024 * 1024
        ),
        seed=seed,
        name=f"carrefour-2m-{budget_mb}mb",
    )


def _observed(result):
    actions = [(t.hex(), summary) for t, summary in result.action_log]
    return result.runtime_s.hex(), actions


@pytest.mark.parametrize(
    "spec,hand_built",
    [
        (_hot_threshold_spec(3.0), _hand_built_hot(3.0, seed=0)),
        (_budget_spec(128), _hand_built_budget(128, seed=0)),
    ],
    ids=["hot-3", "budget-128"],
)
def test_params_path_matches_the_hand_built_policy(spec, hand_built):
    config = SimConfig.quick()
    reference = _run_custom(spec.workload, spec.machine, hand_built, config)
    assert reference.action_log, "the sweep point must act"
    assert _observed(execute_run(spec, config)) == _observed(reference)


def test_warm_ablation_executes_no_run(tmp_path, monkeypatch):
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    config = SimConfig.quick()
    cold = run_experiment("ablation-budget", config).render()
    assert ResultCache.default().stats().n_entries == 5

    def _boom(*args, **kwargs):
        raise AssertionError("a warm ablation simulated a run")

    monkeypatch.setattr(runner_mod, "execute_run", _boom)
    assert run_experiment("ablation-budget", config).render() == cold
    assert ResultCache.default().stats().n_entries == 5
