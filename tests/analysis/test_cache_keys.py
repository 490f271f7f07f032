"""Cache-key completeness, checked at runtime.

A memo key once silently dropped four ``SimConfig`` fields.  A run's
key is now a module-level function
(:func:`repro.experiments.runner.run_fingerprint`, and
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
from repro.experiments.runner import RunSpec, fingerprints, run_fingerprint
from repro.scenarios import ScenarioConfig
from repro.sim.config import SimConfig


# --- Every SimConfig field reaches the fingerprint ----------------------

#: One changed value per SimConfig field, against ``SimConfig.quick()``.
_CONFIG_CHANGES = {
    "stream_length": 1024,
    "scale": 0.5,
    "ibs_rate": 1e-3,
    "seed": 1,
    "max_epochs": 9_999,
}


def test_config_changes_cover_every_field():
    """SimConfig holds only what a run computes from: no field is left
    out of the key, and none is result-neutral."""
    assert set(_CONFIG_CHANGES) == {f.name for f in dataclasses.fields(SimConfig)}
    assert len(_CONFIG_CHANGES) == 5


@pytest.mark.parametrize("name", sorted(_CONFIG_CHANGES))
def test_every_config_field_splits_the_fingerprint(name):
    cfg = SimConfig.quick(seed=0)
    other = dataclasses.replace(cfg, **{name: _CONFIG_CHANGES[name]})
    assert other != cfg
    spec = RunSpec("CG.D", "B", "thp")
    assert run_fingerprint(spec, cfg) != run_fingerprint(spec, other)
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


# --- One encoding per key -----------------------------------------------

def _one_pass_key(identity):
    """The oracle: the stamp and the identity, canonicalized once."""
    text = repr(cache._canonical({"stamp": repro.__version__, **identity}))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _carrefour_params(replication_enabled):
    return (("config", CarrefourConfig(replication_enabled=replication_enabled)),)


#: Values equal in Python whose fields encode differently, as (config,
#: params of one more spec): a memo keyed on the value would file one
#: under the other's key.
_LOOKALIKES = {
    "int-scale": (SimConfig(scale=1), ()),
    "float-scale": (SimConfig(scale=1.0), ()),
    "zero-rate": (SimConfig(ibs_rate=0.0), ()),
    "negative-zero-rate": (SimConfig(ibs_rate=-0.0), ()),
    "bool-param": (SimConfig(), _carrefour_params(True)),
    "int-param": (SimConfig(), _carrefour_params(1)),
    "quick": (SimConfig.quick(seed=3), ()),
}

_KEY_SPECS = [
    RunSpec("CG.D", "B", "thp"),
    RunSpec("Kmeans", "machine-A", "linux-4k", True),
    _BASE_SPEC,
]


def _lookalike_spec(params):
    return RunSpec("pca", "B", "carrefour-2m", False, params)


@pytest.mark.parametrize("name", sorted(_LOOKALIKES))
def test_keys_match_the_one_pass_encoding(name):
    config, params = _LOOKALIKES[name]
    specs = _KEY_SPECS + [_lookalike_spec(params)]
    keys = fingerprints(specs, config)
    assert list(keys) == specs
    for spec in specs:
        assert keys[spec] == _one_pass_key(
            {
                "workload": spec.workload,
                "machine": runner_mod.canonical_machine(spec.machine),
                "policy": spec.policy,
                "backing_1g": spec.backing_1g,
                "params": spec.params,
                "config": config,
            }
        )
    scenario = ScenarioConfig(machine="A", workloads=("Kmeans",), pressure=0.5)
    assert scenario_fingerprint(scenario, config) == _one_pass_key(
        {"kind": "scenario", "scenario": scenario, "config": config}
    )


@pytest.mark.parametrize(
    "pair",
    [
        ("int-scale", "float-scale"),
        ("zero-rate", "negative-zero-rate"),
        ("bool-param", "int-param"),
    ],
    ids="-vs-".join,
)
def test_lookalikes_keep_their_own_keys(pair):
    (config_a, params_a), (config_b, params_b) = (_LOOKALIKES[n] for n in pair)
    spec_a, spec_b = _lookalike_spec(params_a), _lookalike_spec(params_b)
    assert (config_a, spec_a) == (config_b, spec_b)
    assert run_fingerprint(spec_a, config_a) != run_fingerprint(spec_b, config_b)
