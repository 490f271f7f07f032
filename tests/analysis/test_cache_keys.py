"""Cache-key completeness regression, driven by R001 as a library.

PR 1 shipped a memo key that silently dropped four ``SimConfig``
fields; the R001 rule exists so that bug class cannot recur.  These
tests (a) run R001 over the real tree so any new config dataclass with
an incomplete ``cache_key``/``fingerprint`` fails CI, (b) prove the
rule would actually catch a regression by injecting one, (c) pin
the runtime semantics of ``_CACHE_KEY_EXCLUDE``, and (d) check at
runtime that every :class:`RunSpec` field, policy params included,
reaches the fingerprint both cache layers key on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib

import pytest

import repro
from repro.analysis.linter import format_findings, lint_paths, lint_source
from repro.analysis.rules import rules_by_id
from repro.core.carrefour import CarrefourConfig
from repro.core.reactive import ReactiveConfig
from repro.experiments import cache
from repro.experiments import runner as runner_mod
from repro.experiments.cache import run_fingerprint, scenario_fingerprint
from repro.experiments.experiments import MACHINES, _grid
from repro.experiments.parallel import GridRunner
from repro.experiments.runner import RunSettings, RunSpec
from repro.scenarios import ScenarioConfig
from repro.sim.config import SimConfig
from repro.workloads.registry import FIGURE1_ORDER

PACKAGE = pathlib.Path(repro.__file__).parent
RUNNER_SRC = PACKAGE / "experiments" / "runner.py"


def test_every_cache_key_method_covers_all_fields():
    findings = lint_paths([PACKAGE], rules=rules_by_id("R001"))
    assert findings == [], format_findings(findings)


def test_r001_catches_an_injected_field():
    """Add a field to RunSettings without touching fingerprint: R001 trips.

    This mutation test keeps the rule and the real source honest with
    each other — if R001's dataclass parsing drifted away from how
    runner.py is written, the clean-tree test above could pass
    vacuously; this one would fail.
    """
    source = RUNNER_SRC.read_text(encoding="utf-8")
    anchor = "    seed: int = 0\n"
    assert anchor in source, "RunSettings layout changed; update this test"
    mutated = source.replace(anchor, anchor + "    extra_knob: int = 0\n", 1)
    findings = lint_source(mutated, str(RUNNER_SRC), rules=rules_by_id("R001"))
    assert findings, "R001 missed a field added to RunSettings"
    assert any("extra_knob" in f.message for f in findings)


def test_exclude_list_names_real_fields():
    field_names = {f.name for f in dataclasses.fields(SimConfig)}
    assert SimConfig._CACHE_KEY_EXCLUDE <= field_names


@pytest.mark.parametrize("excluded", sorted(SimConfig._CACHE_KEY_EXCLUDE))
def test_excluded_fields_do_not_split_the_memo_key(excluded):
    cfg = SimConfig.quick(seed=0)
    toggled = dataclasses.replace(cfg, **{excluded: not getattr(cfg, excluded)})
    spec = RunSpec("CG.D", "B", "thp")
    key_a = RunSettings(config=cfg, seed=0).fingerprint(spec)
    key_b = RunSettings(config=toggled, seed=0).fingerprint(spec)
    assert key_a == key_b


def test_excluded_fields_do_not_split_the_fingerprint():
    cfg = SimConfig.quick(seed=0)
    checked = dataclasses.replace(cfg, check_invariants=True)
    args = ("CG.D", "machine-B", "thp", False)
    assert run_fingerprint(*args, cfg, 0) == run_fingerprint(*args, checked, 0)


def test_result_affecting_fields_still_split_both_keys():
    cfg = SimConfig.quick(seed=0)
    other = dataclasses.replace(cfg, max_epochs=cfg.max_epochs + 1)
    args = ("CG.D", "machine-B", "thp", False)
    assert run_fingerprint(*args, cfg, 0) != run_fingerprint(*args, other, 0)
    spec = RunSpec("CG.D", "B", "thp")
    key_a = RunSettings(config=cfg, seed=0).fingerprint(spec)
    key_b = RunSettings(config=other, seed=0).fingerprint(spec)
    assert key_a != key_b


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
    settings = RunSettings.quick()
    other = dataclasses.replace(_BASE_SPEC, **_SPEC_CHANGES[change])
    assert other != _BASE_SPEC
    assert settings.fingerprint(other) != settings.fingerprint(_BASE_SPEC)


def test_machine_aliases_share_one_fingerprint():
    settings = RunSettings.quick()
    assert settings.fingerprint(RunSpec("CG.D", "B")) == settings.fingerprint(
        RunSpec("CG.D", "machine-B")
    )


def test_empty_params_keep_the_pre_params_fingerprint():
    """Runs without params are filed exactly where they always were."""
    cfg = SimConfig.quick(seed=0)
    spec = RunSpec("CG.D", "B", "thp")
    assert RunSettings(config=cfg, seed=0).fingerprint(spec) == run_fingerprint(
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
    settings = RunSettings(config=config, seed=7)
    keys = settings.fingerprints(_KEY_SPECS)
    assert list(keys) == _KEY_SPECS
    for spec in _KEY_SPECS:
        identity = {
            "stamp": repro.__version__,
            "workload": spec.workload,
            "machine": runner_mod.canonical_machine(spec.machine),
            "policy": spec.policy,
            "backing_1g": spec.backing_1g,
            "seed": 7,
            "config": config,
        }
        if spec.params:
            identity["params"] = spec.params
        assert keys[spec] == settings.fingerprint(spec) == _two_pass_key(identity)
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
    int_scale = RunSettings(config=_LOOKALIKE_CONFIGS["int-scale"])
    float_scale = RunSettings(config=_LOOKALIKE_CONFIGS["float-scale"])
    assert int_scale.config == float_scale.config
    assert int_scale.fingerprints([spec]) != float_scale.fingerprints([spec])


def test_a_grid_encodes_its_config_once(monkeypatch):
    settings = RunSettings.quick()
    grid = _grid(FIGURE1_ORDER, MACHINES, ["thp", "linux-4k"])
    assert len(grid) == 76
    encoded = []
    canonical = cache._canonical

    def counting(obj):
        if obj is settings.config:
            encoded.append(obj)
        return canonical(obj)

    monkeypatch.setattr(cache, "_canonical", counting)
    monkeypatch.setattr(runner_mod, "execute_run", lambda spec, _: spec)
    results = GridRunner(settings, jobs=1).run(grid, use_cache=False)
    assert list(results) == grid
    assert len(encoded) == 1
