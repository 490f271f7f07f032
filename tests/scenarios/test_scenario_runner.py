"""Scenario runner: pinned colocation golden, determinism, caching.

The golden scenario here is the repo's multi-tenant counterpart of the
engine goldens in ``tests/sim/test_engine_golden.py``: a fixed-trace
colocation of ``SSCA.20`` under ``carrefour-lp`` with a late-arriving
``Kmeans`` under ``thp``, run twice — on a fresh-boot host and under
70% fragmenting memory pressure.  Runtimes are pinned as hex floats;
any drift in the host multiplexing, the shared allocator, the pressure
model, or THP's fragmentation fallback shows up as an exact mismatch.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.cli import main
from repro.experiments import scenario_runner
from repro.experiments.cache import ResultCache, scenario_fingerprint
from repro.experiments.scenario_runner import (
    ScenarioResult,
    execute_scenario,
    run_scenario,
    tenant_seed,
)
from repro.options import CACHE_DIR_ENV, CACHE_ENABLE_ENV, STREAM_CACHE_ENV
from repro.scenarios import ScenarioConfig
from repro.sim.config import SimConfig
from repro.vm.layout import PageSize
from repro.workloads.streambank import EPOCH_WINDOW, clear_stream_banks

#: The pinned colocation scenario (see module docstring).  Quick-scale
#: footprints on machine A; tenant 1 arrives at host epoch 4, both run
#: 10 local epochs.
PINNED = ScenarioConfig(
    arrival="fixed-trace",
    machine="A",
    trace=((0, "SSCA.20", "carrefour-lp"), (4, "Kmeans", "thp")),
    max_tenants=2,
    tenant_epochs=10,
    seed=0,
)

#: Golden observations by pressure fraction.  Under pressure the pins
#: fragment huge-page contiguity, so both tenants' THP allocation falls
#: back to base pages (zero 2MB pages mapped) and the congested
#: carrefour-lp tenant slows by ~19% — the paper's loaded-server regime
#: versus a fresh boot.  ``pressure_bytes`` is exact: the pressure model
#: is deterministic, so a single byte of drift means the allocator or
#: the pinning algorithm changed.
SCENARIO_GOLDENS = {
    0.0: {
        "host_epochs": 14,
        "pressure_bytes": 0,
        "events": [(0, "spawn", 0), (4, "spawn", 1), (10, "exit", 0), (14, "exit", 1)],
        "tenants": [
            {
                "status": "completed",
                "exit_epoch": 10,
                "runtime_s": "0x1.153d1e9de4935p+2",
                "pages_4k": 15872,
                "pages_2m": 425,
            },
            {
                "status": "completed",
                "exit_epoch": 14,
                "runtime_s": "0x1.8162ca6b780c3p+1",
                "pages_4k": 0,
                "pages_2m": 148,
            },
        ],
    },
    0.7: {
        "host_epochs": 14,
        "pressure_bytes": 36077715456,
        "events": [(0, "spawn", 0), (4, "spawn", 1), (10, "exit", 0), (14, "exit", 1)],
        "tenants": [
            {
                "status": "completed",
                "exit_epoch": 10,
                "runtime_s": "0x1.4b6402ac24d7cp+2",
                "pages_4k": 233472,
                "pages_2m": 0,
            },
            {
                "status": "completed",
                "exit_epoch": 14,
                "runtime_s": "0x1.8e88d50b21e9fp+1",
                "pages_4k": 75776,
                "pages_2m": 0,
            },
        ],
    },
}


def _observe_scenario(result: ScenarioResult) -> dict:
    return {
        "host_epochs": result.host_epochs,
        "pressure_bytes": result.pressure_bytes,
        "events": result.events,
        "tenants": [
            {
                "status": t.status,
                "exit_epoch": t.exit_epoch,
                "runtime_s": t.result.runtime_s.hex(),
                "pages_4k": t.result.final_page_counts[PageSize.SIZE_4K],
                "pages_2m": t.result.final_page_counts[PageSize.SIZE_2M],
            }
            for t in result.tenants
        ],
    }


def _signature(result: ScenarioResult) -> tuple:
    """Bit-exact identity of a scenario run (for determinism tests)."""
    return (
        result.host_epochs,
        result.pressure_bytes,
        tuple(result.events),
        tuple(
            (
                t.tenant_id,
                t.workload,
                t.policy,
                t.status,
                t.exit_epoch,
                t.result.runtime_s.hex(),
                tuple(e.hex() for e in t.result.epoch_times_s),
                tuple(sorted(t.result.final_page_counts.items())),
            )
            for t in result.tenants
        ),
    )


class TestPinnedColocationGolden:
    @pytest.mark.parametrize("pressure", sorted(SCENARIO_GOLDENS))
    def test_matches_golden(self, pressure, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        scenario = dataclasses.replace(PINNED, pressure=pressure)
        result = execute_scenario(scenario, SimConfig.quick(seed=0))
        assert _observe_scenario(result) == SCENARIO_GOLDENS[pressure]

    def test_pressure_slows_the_colocation(self):
        fresh = SCENARIO_GOLDENS[0.0]["tenants"]
        loaded = SCENARIO_GOLDENS[0.7]["tenants"]
        for before, after in zip(fresh, loaded):
            assert float.fromhex(after["runtime_s"]) > float.fromhex(
                before["runtime_s"]
            )
            # The slowdown's mechanism: THP lost every huge page.
            assert after["pages_2m"] == 0 and before["pages_2m"] > 0


class TestDeterminism:
    SCENARIO = ScenarioConfig(
        arrival="poisson",
        machine="A",
        workloads=("SSCA.20", "Kmeans"),
        policies=("thp", "carrefour-lp"),
        arrival_rate=0.5,
        max_tenants=3,
        tenant_epochs=4,
        pressure=0.3,
        seed=7,
    )

    def test_same_seed_bit_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_CHECK", "1")
        cfg = SimConfig.quick(seed=0)
        first = execute_scenario(self.SCENARIO, cfg)
        second = execute_scenario(self.SCENARIO, cfg)
        assert _signature(first) == _signature(second)

    def test_identical_with_stream_disk_store(self, monkeypatch, tmp_path):
        """Banks written to and read back from ``REPRO_STREAM_CACHE``
        drive the same scenario as banks kept in memory."""
        # Tenants long enough to complete, and so persist, a block.
        scenario = dataclasses.replace(self.SCENARIO, tenant_epochs=EPOCH_WINDOW)
        cfg = SimConfig.quick(seed=0)
        clear_stream_banks()
        in_memory = execute_scenario(scenario, cfg)
        monkeypatch.setenv(STREAM_CACHE_ENV, str(tmp_path))
        clear_stream_banks()
        written = execute_scenario(scenario, cfg)
        assert sorted(tmp_path.rglob("b0.ok"))
        clear_stream_banks()
        loaded = execute_scenario(scenario, cfg)
        clear_stream_banks()
        assert _signature(written) == _signature(in_memory)
        assert _signature(loaded) == _signature(in_memory)

    def test_different_scenario_seeds_differ(self):
        cfg = SimConfig.quick(seed=0)
        a = execute_scenario(self.SCENARIO, cfg)
        b = execute_scenario(
            dataclasses.replace(self.SCENARIO, seed=8), cfg
        )
        assert _signature(a) != _signature(b)


class TestTenantSeeds:
    def test_distinct_per_tenant(self):
        scenario = ScenarioConfig(seed=0)
        seeds = [tenant_seed(scenario, i) for i in range(32)]
        assert len(set(seeds)) == len(seeds)
        assert all(0 <= s < 2**31 for s in seeds)

    def test_stable_across_calls(self):
        scenario = ScenarioConfig(seed=5)
        assert tenant_seed(scenario, 3) == tenant_seed(scenario, 3)


class TestCaching:
    SCENARIO = dataclasses.replace(PINNED, pressure=0.7)

    def test_run_scenario_roundtrips_through_cache(self):
        cfg = SimConfig.quick(seed=0)
        first = run_scenario(self.SCENARIO, cfg)
        key = scenario_fingerprint(self.SCENARIO, cfg)
        cached = ResultCache.default().get(key, expect=ScenarioResult)
        assert cached is not None
        second = run_scenario(self.SCENARIO, cfg)
        assert _signature(first) == _signature(second) == _signature(cached)

    def test_scenario_keys_disjoint_by_pressure(self):
        cfg = SimConfig.quick(seed=0)
        a = scenario_fingerprint(self.SCENARIO, cfg)
        b = scenario_fingerprint(
            dataclasses.replace(self.SCENARIO, pressure=0.0), cfg
        )
        assert a != b

    def test_cache_off_bypasses(self, monkeypatch):
        """``REPRO_CACHE=0`` (what ``--fresh`` sets) bypasses the store."""
        monkeypatch.setenv(CACHE_ENABLE_ENV, "0")
        cfg = SimConfig.quick(seed=0)
        scenario = dataclasses.replace(PINNED, seed=99)
        run_scenario(scenario, cfg)
        key = scenario_fingerprint(scenario, cfg)
        assert ResultCache.default().get(key, expect=ScenarioResult) is None

    def test_fresh_stores_nothing_and_plain_runs_store_one_entry(
        self, monkeypatch, tmp_path, capsys
    ):
        """``repro scenario --fresh`` sets ``REPRO_CACHE=0`` as the
        artifacts do: it simulates and stores nothing.  Then, each as a
        new process would see it, a plain invocation stores one entry
        and a second simulates nothing.  Exact counts."""
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path / "cache"))
        monkeypatch.setenv(CACHE_ENABLE_ENV, "1")  # registers restore-on-teardown
        executed = []
        execute = scenario_runner.execute_scenario

        def counted(scenario, config=None):
            executed.append(scenario)
            return execute(scenario, config)

        monkeypatch.setattr(scenario_runner, "execute_scenario", counted)
        argv = ["scenario", "--quick", "--machine", "A", "--workloads",
                "Kmeans", "--max-tenants", "1", "--tenant-epochs", "2"]
        store = ResultCache.default()

        assert main(argv + ["--fresh"]) == 0
        fresh = capsys.readouterr().out
        assert len(executed) == 1
        assert store.stats().n_entries == 0

        monkeypatch.delenv(CACHE_ENABLE_ENV)
        assert main(argv) == 0
        assert len(executed) == 2
        assert store.stats().n_entries == 1

        assert main(argv) == 0
        assert len(executed) == 2
        assert store.stats().n_entries == 1
        assert capsys.readouterr().out == fresh * 2


class TestTruncation:
    def test_clock_runout_marks_tenants_truncated(self):
        scenario = ScenarioConfig(
            arrival="fixed-trace",
            machine="A",
            trace=((0, "SSCA.20", "thp"),),
            max_tenants=1,
            tenant_epochs=50,
            max_host_epochs=3,
            seed=0,
        )
        result = execute_scenario(scenario, SimConfig.quick(seed=0))
        assert result.host_epochs == 3
        (record,) = result.tenants
        assert record.status == "truncated"
        assert record.exit_epoch is None
        # The partial result covers exactly the epochs that ran.
        assert len(record.result.epoch_times_s) == 3
        assert result.n_completed == 0


class TestTenantProfiles:
    def test_each_tenant_times_the_epochs_it_ran(self, monkeypatch):
        """Every tenant owns a phase timer, so a scenario is profiled
        per tenant: a completed and a truncated tenant each count
        exactly their own epochs."""
        from repro.sim.host import Host

        admitted = []
        admit = Host.admit

        def recording(host, tenant):
            admitted.append(tenant)
            admit(host, tenant)

        monkeypatch.setattr(Host, "admit", recording)
        scenario = ScenarioConfig(
            arrival="fixed-trace",
            machine="A",
            trace=((0, "SSCA.20", "thp"), (2, "Kmeans", "carrefour-lp")),
            max_tenants=2,
            tenant_epochs=4,
            max_host_epochs=5,
            seed=0,
        )
        result = execute_scenario(scenario, SimConfig.quick(seed=0))
        assert [t.status for t in result.tenants] == ["completed", "truncated"]
        assert [t.profiler.n_epochs for t in admitted] == [4, 3]
        for tenant, record in zip(admitted, result.tenants):
            assert tenant.profiler.n_epochs == len(record.result.epoch_times_s)
            assert tenant.profiler.total_s > 0.0
