"""Cache-key completeness, checked at runtime.

A memo key once silently dropped four ``SimConfig`` fields.  A run's
key is now a module-level function
(:func:`repro.experiments.runner.fingerprints`, checked against one
run's key alone in ``tests/per_run_fingerprint.py``, and
:func:`~repro.experiments.cache.scenario_fingerprint` for scenarios),
so these tests change every :class:`SimConfig` field and every
:class:`RunSpec` field, policy params included, one at a time and
require each change to split the fingerprint the result cache keys on.
"""

from __future__ import annotations

import dataclasses
import hashlib

import pytest

import repro
from repro.core.carrefour import CarrefourConfig
from repro.core.reactive import ReactiveConfig
from repro.experiments import cache
from repro.experiments import runner as runner_mod
from repro.experiments.cache import scenario_fingerprint
from repro.experiments.experiments import MACHINES, _grid
from repro.experiments.parallel import GridRunner
from repro.experiments.runner import RunSpec, fingerprints
from repro.scenarios import ScenarioConfig
from repro.hardware.tlb import TlbSpec
from repro.sim.config import MachineModels, SimConfig
from repro.workloads.registry import FIGURE1_ORDER
from tests.per_run_fingerprint import run_fingerprint


# --- Every SimConfig field reaches the fingerprint ----------------------

#: One changed value per SimConfig field, against ``SimConfig.quick()``.
_CONFIG_CHANGES = {
    "epoch_s": 0.5,
    "stream_length": 1024,
    "scale": 0.5,
    "ibs_rate": 1e-3,
    "ibs_cost_cycles": 3000.0,
    "seed": 1,
    "track_access_stats": False,
    "models": MachineModels(tlb=TlbSpec(entries_2m=64)),
    "max_epochs": 9_999,
    "khugepaged_batch": 256,
}


def test_config_changes_cover_every_field():
    """SimConfig holds only what a run computes from: no field is left
    out of the key, and none is result-neutral."""
    assert set(_CONFIG_CHANGES) == {f.name for f in dataclasses.fields(SimConfig)}
    assert len(_CONFIG_CHANGES) == 10


@pytest.mark.parametrize("name", sorted(_CONFIG_CHANGES))
def test_every_config_field_splits_the_fingerprint(name):
    cfg = SimConfig.quick(seed=0)
    other = dataclasses.replace(cfg, **{name: _CONFIG_CHANGES[name]})
    assert other != cfg
    args = ("CG.D", "machine-B", "thp", False)
    assert run_fingerprint(*args, cfg, 0) != run_fingerprint(*args, other, 0)
    spec = RunSpec("CG.D", "B", "thp")
    assert fingerprints([spec], cfg) != fingerprints([spec], other)
    scenario = ScenarioConfig(machine="A", workloads=("Kmeans",))
    assert scenario_fingerprint(scenario, cfg) != scenario_fingerprint(
        scenario, other
    )


# --- Every RunSpec field reaches the fingerprint ------------------------

_HOT = (("reactive_config", ReactiveConfig(hot_page_pct=3.0)),)
_BASE_SPEC = RunSpec("CG.D", "B", "carrefour-lp", False, _HOT)

#: One changed value per RunSpec field, then one per params value.
_SPEC_CHANGES = {
    "workload": {"workload": "UA.B"},
    "machine": {"machine": "A"},
    "policy": {"policy": "carrefour-2m"},
    "backing_1g": {"backing_1g": True},
    "params": {"params": ()},
    "params-name": {"params": (("reactive_config_", _HOT[0][1]),)},
    "params-value": {
        "params": (("reactive_config", ReactiveConfig(hot_page_pct=12.0)),)
    },
    "params-nested-field": {
        "params": (
            (
                "reactive_config",
                ReactiveConfig(hot_page_pct=3.0, split_gain_threshold_pct=6.0),
            ),
        )
    },
    "params-config-type": {
        "params": (("reactive_config", CarrefourConfig()),)
    },
}


def test_spec_changes_cover_every_field():
    changed = {
        name for change in _SPEC_CHANGES.values() for name in change
    }
    assert changed == {f.name for f in dataclasses.fields(RunSpec)}


@pytest.mark.parametrize("change", sorted(_SPEC_CHANGES))
def test_every_spec_field_splits_the_fingerprint(change):
    other = dataclasses.replace(_BASE_SPEC, **_SPEC_CHANGES[change])
    assert other != _BASE_SPEC
    keys = fingerprints([_BASE_SPEC, other], SimConfig.quick())
    assert keys[other] != keys[_BASE_SPEC]


def test_machine_aliases_share_one_fingerprint():
    keys = fingerprints(
        [RunSpec("CG.D", "B"), RunSpec("CG.D", "machine-B")], SimConfig.quick()
    )
    assert len(set(keys.values())) == 1


def test_empty_params_keep_the_pre_params_fingerprint():
    """Runs without params are filed exactly where they always were."""
    cfg = SimConfig.quick(seed=0)
    spec = RunSpec("CG.D", "B", "thp")
    assert fingerprints([spec], cfg)[spec] == run_fingerprint(
        "CG.D", "machine-B", "thp", False, cfg, 0
    )


# --- One config encoding per grid ---------------------------------------

def _two_pass_key(identity):
    """The key as first written: each structured field canonicalized on
    its own, then the whole identity once more.  The oracle for keys
    that encode a grid's config once."""
    encoded = dict(identity)
    for name in ("config", "params", "scenario"):
        if name in encoded:
            encoded[name] = cache._canonical(encoded[name])
    text = repr(cache._canonical(encoded))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: Configs equal in value whose fields encode differently: a memo keyed
#: on the config's value would file one under the other's key.
_LOOKALIKE_CONFIGS = {
    "int-scale": SimConfig(scale=1),
    "float-scale": SimConfig(scale=1.0),
    "zero-rate": SimConfig(ibs_rate=0.0),
    "negative-zero-rate": SimConfig(ibs_rate=-0.0),
    "bool-stats": SimConfig(track_access_stats=True),
    "int-stats": SimConfig(track_access_stats=1),
    "quick": SimConfig.quick(seed=3),
}

_KEY_SPECS = [
    RunSpec("CG.D", "B", "thp"),
    RunSpec("Kmeans", "machine-A", "linux-4k", True),
    _BASE_SPEC,
]


@pytest.mark.parametrize("name", sorted(_LOOKALIKE_CONFIGS))
def test_keys_match_the_two_pass_encoding(name):
    config = _LOOKALIKE_CONFIGS[name]
    keys = fingerprints(_KEY_SPECS, config)
    assert list(keys) == _KEY_SPECS
    for spec in _KEY_SPECS:
        identity = {
            "stamp": repro.__version__,
            "workload": spec.workload,
            "machine": runner_mod.canonical_machine(spec.machine),
            "policy": spec.policy,
            "backing_1g": spec.backing_1g,
            "seed": config.seed,
            "config": config,
        }
        if spec.params:
            identity["params"] = spec.params
        assert keys[spec] == _two_pass_key(identity)
        assert fingerprints([spec], config)[spec] == keys[spec]
    scenario = ScenarioConfig(machine="A", workloads=("Kmeans",), pressure=0.5)
    assert scenario_fingerprint(scenario, config) == _two_pass_key(
        {
            "stamp": repro.__version__,
            "kind": "scenario",
            "scenario": scenario,
            "config": config,
        }
    )


def test_lookalike_configs_keep_their_own_keys():
    spec = RunSpec("CG.D", "B", "thp")
    int_scale = _LOOKALIKE_CONFIGS["int-scale"]
    float_scale = _LOOKALIKE_CONFIGS["float-scale"]
    assert int_scale == float_scale
    assert fingerprints([spec], int_scale) != fingerprints([spec], float_scale)


def test_a_grid_encodes_its_config_once(monkeypatch):
    config = SimConfig.quick()
    grid = _grid(FIGURE1_ORDER, MACHINES, ["thp", "linux-4k"])
    assert len(grid) == 76
    encoded = []
    canonical = cache._canonical

    def counting(obj):
        if obj is config:
            encoded.append(obj)
        return canonical(obj)

    monkeypatch.setattr(cache, "_canonical", counting)
    monkeypatch.setattr(runner_mod, "execute_run", lambda spec, _: spec)
    monkeypatch.setenv("REPRO_CACHE", "0")
    results = GridRunner(config, jobs=1).run(grid)
    assert list(results) == grid
    assert len(encoded) == 1
