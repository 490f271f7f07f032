"""Tests for the persistent on-disk result cache and its key scheme."""

from __future__ import annotations

import pickle
from dataclasses import replace
from unittest import mock

import pytest

import repro
from repro.experiments import runner as runner_mod
from repro.experiments.cache import ResultCache, cache_enabled, cache_root
from repro.experiments.runner import (
    RunSpec,
    fingerprints,
    run_benchmark,
    run_fingerprint,
)
from repro.options import CACHE_DIR_ENV, CACHE_ENABLE_ENV
from repro.sim.config import SimConfig


@pytest.fixture
def store(tmp_path, monkeypatch):
    """A fresh cache rooted in a per-test tmp dir."""
    monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
    return ResultCache.default()


def _fp(config: SimConfig, stamp: str = "test-stamp", **overrides) -> str:
    """The run key, with the package version stamp set to ``stamp``."""
    spec = replace(RunSpec("Kmeans", "A", "thp"), **overrides)
    with mock.patch.object(repro, "__version__", stamp):
        return run_fingerprint(spec, config)


def _key(spec: RunSpec, config: SimConfig) -> str:
    return fingerprints([spec], config)[spec]


class TestFingerprint:
    def test_stable(self):
        config = SimConfig.quick()
        assert _fp(config) == _fp(SimConfig.quick())

    @pytest.mark.parametrize(
        "field,value",
        [
            # Regression: the old tuple key dropped this field, so two
            # configs differing only here collided.
            ("max_epochs", 7),
            # And the ones it always covered must still matter.
            ("stream_length", 512),
            ("scale", 0.5),
            ("ibs_rate", 1e-3),
            ("seed", 3),
        ],
    )
    def test_every_config_field_matters(self, field, value):
        base = SimConfig.quick()
        changed = replace(base, **{field: value})
        assert _fp(base) != _fp(changed)

    @pytest.mark.parametrize(
        "override",
        [
            {"workload": "CG.D"},
            {"machine": "B"},
            {"policy": "linux-4k"},
            {"backing_1g": True},
            {"stamp": "other-stamp"},
        ],
    )
    def test_identity_fields_matter(self, override):
        config = SimConfig.quick()
        assert _fp(config) != _fp(config, **override)

    def test_default_stamp_is_package_version(self, monkeypatch):
        config = SimConfig.quick()
        spec = RunSpec("Kmeans", "A", "thp")
        before = run_fingerprint(spec, config)
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        after = run_fingerprint(spec, config)
        assert before != after


class TestKeyRegression:
    """A grid's run keys use the complete config (the in-process memo's
    key once dropped four fields, of which ``max_epochs`` remains)."""

    def test_key_covers_dropped_fields(self):
        base = SimConfig.quick()
        spec = RunSpec("Kmeans", "A", "thp")
        assert _key(spec, base) != _key(spec, replace(base, max_epochs=7))

    def test_no_stale_collision_between_max_epochs(self, store):
        quick = SimConfig.quick()
        short = replace(quick, max_epochs=2)
        longer = replace(quick, max_epochs=4)
        a = run_benchmark("Kmeans", "A", "linux-4k", short)
        b = run_benchmark("Kmeans", "A", "linux-4k", longer)
        assert a is not b
        assert len(a.epoch_times_s) == 2
        assert len(b.epoch_times_s) == 4


class TestResultCache:
    def test_roundtrip(self, store):
        config = SimConfig.quick()
        result = run_benchmark("Kmeans", "A", "linux-4k", config)
        key = _key(RunSpec("Kmeans", "A", "linux-4k"), config)
        loaded = store.get(key)
        assert loaded is not None
        assert loaded is not result
        assert loaded.runtime_s == result.runtime_s
        assert loaded.epoch_times_s == result.epoch_times_s
        assert loaded.bank.total("tlb_misses") == result.bank.total("tlb_misses")

    def test_disk_hit_skips_simulation(self, store, monkeypatch):
        config = SimConfig.quick()
        first = run_benchmark("Kmeans", "A", "linux-4k", config)

        def _boom(*args, **kwargs):
            raise AssertionError("simulated again despite persistent hit")

        monkeypatch.setattr(runner_mod, "execute_run", _boom)
        second = run_benchmark("Kmeans", "A", "linux-4k", config)
        assert second is not first
        assert second.runtime_s == first.runtime_s

    def test_corrupted_entry_reruns_not_crashes(self, store):
        config = SimConfig.quick()
        run_benchmark("Kmeans", "A", "linux-4k", config)
        key = _key(RunSpec("Kmeans", "A", "linux-4k"), config)
        path = store.path_for(key)
        path.write_bytes(b"not a pickle at all")
        assert store.get(key) is None
        assert not path.exists()  # bad entry dropped
        result = run_benchmark("Kmeans", "A", "linux-4k", config)
        assert result.runtime_s > 0

    def test_wrong_type_entry_is_a_miss(self, store):
        store.root.mkdir(parents=True, exist_ok=True)
        path = store.path_for("deadbeef")
        path.write_bytes(pickle.dumps({"not": "a result"}))
        assert store.get("deadbeef") is None
        assert not path.exists()

    def test_atomic_write_leaves_no_tmp_files(self, store):
        config = SimConfig.quick()
        run_benchmark("Kmeans", "A", "linux-4k", config)
        leftovers = [
            p for p in store.root.iterdir() if p.name.startswith(".tmp-")
        ]
        assert leftovers == []

    def test_stats_and_clear(self, store):
        config = SimConfig.quick()
        run_benchmark("Kmeans", "A", "linux-4k", config)
        run_benchmark("Kmeans", "A", "thp", config)
        stats = store.stats()
        assert stats.n_entries == 2
        assert stats.total_bytes > 0
        assert stats.describe()
        assert store.clear() == 2
        assert store.stats().n_entries == 0

    def test_version_stamp_invalidates(self, store, monkeypatch):
        config = SimConfig.quick()
        run_benchmark("Kmeans", "A", "linux-4k", config)
        monkeypatch.setattr(repro, "__version__", "0.0.0-test")
        # The old entry is unreachable under the new stamp: a fresh
        # fingerprint points at a missing file.
        key = _key(RunSpec("Kmeans", "A", "linux-4k"), config)
        assert store.get(key) is None

    def test_disabled_by_env(self, store, monkeypatch):
        monkeypatch.setenv(CACHE_ENABLE_ENV, "0")
        assert not cache_enabled()
        config = SimConfig.quick()
        run_benchmark("Kmeans", "A", "linux-4k", config)
        assert store.stats().n_entries == 0

    def test_root_from_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "elsewhere"))
        assert cache_root() == tmp_path / "elsewhere"

    def test_missing_dir_stats(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "never-created"))
        store = ResultCache.default()
        assert store.stats().n_entries == 0
        assert store.clear() == 0
