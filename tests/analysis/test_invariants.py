"""Runtime invariant checker: enablement, overhead-freedom, detection.

The contract under test: with checking on, a healthy run is bit-
identical to an unchecked run and completes without violations; with
state corrupted in any of the ways the checker guards (conservation,
split bookkeeping, replica accounting, counter sanity), it raises a
structured :class:`InvariantViolation` naming the run context.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.analysis.invariants import (
    InvariantViolation,
    check_address_space,
    check_epoch_counters,
    check_page_conservation,
    check_physical_memory,
    invariants_enabled,
)
from repro.experiments.configs import make_policy
from repro.hardware.machines import machine_by_name
from repro.options import CHECK_ENV
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation
from repro.workloads.registry import get_workload

WORKLOAD = "CG.D"
MACHINE = "A"
POLICY = "carrefour-lp"  # exercises splits, migration and replication


def _make_sim(check_invariants: bool) -> Simulation:
    cfg = dataclasses.replace(
        SimConfig.quick(seed=0), check_invariants=check_invariants
    )
    return Simulation(
        machine_by_name(MACHINE),
        get_workload(WORKLOAD),
        make_policy(POLICY, seed=0),
        config=cfg,
    )


@pytest.fixture(scope="module")
def checked_sim():
    """One completed, invariant-checked simulation shared by the module.

    Corruption tests mutate its state and must restore it before
    returning.
    """
    sim = _make_sim(check_invariants=True)
    sim.run()
    return sim


# ----------------------------------------------------------------------
# Enablement
# ----------------------------------------------------------------------
def test_config_flag_enables_checker(monkeypatch):
    monkeypatch.delenv(CHECK_ENV, raising=False)
    assert _make_sim(True).invariant_checker is not None
    assert _make_sim(False).invariant_checker is None


def test_env_overrides_config_both_directions(monkeypatch):
    monkeypatch.setenv(CHECK_ENV, "1")
    assert _make_sim(False).invariant_checker is not None
    monkeypatch.setenv(CHECK_ENV, "0")
    assert _make_sim(True).invariant_checker is None


def test_invariants_enabled_semantics(monkeypatch):
    cfg_on = dataclasses.replace(SimConfig.quick(seed=0), check_invariants=True)
    cfg_off = SimConfig.quick(seed=0)
    monkeypatch.delenv(CHECK_ENV, raising=False)
    assert invariants_enabled(cfg_on) is True
    assert invariants_enabled(cfg_off) is False
    assert invariants_enabled(None) is False
    for value in ("1", "true", "ON", "yes"):
        monkeypatch.setenv(CHECK_ENV, value)
        assert invariants_enabled(cfg_off) is True
    for value in ("0", "false", "Off", "no"):
        monkeypatch.setenv(CHECK_ENV, value)
        assert invariants_enabled(cfg_on) is False


# ----------------------------------------------------------------------
# Clean runs
# ----------------------------------------------------------------------
def test_checked_run_is_clean_and_checks_every_epoch(checked_sim):
    checker = checked_sim.invariant_checker
    assert checker is not None
    assert checker._epochs_checked == len(checked_sim.bank.epochs) > 0


def test_checking_does_not_perturb_results(checked_sim, monkeypatch):
    monkeypatch.delenv(CHECK_ENV, raising=False)
    unchecked = _make_sim(check_invariants=False)
    result = unchecked.run()
    assert result.runtime_s.hex() == checked_sim.sim_time_s.hex()
    assert result.epoch_times_s == [
        e.duration_s for e in checked_sim.bank.epochs
    ]


# ----------------------------------------------------------------------
# Detection (corrupt one property at a time, restore afterwards)
# ----------------------------------------------------------------------
def test_detects_split_bookkeeping_drift(checked_sim):
    asp = checked_sim.asp
    asp.mapped_count_2m[0] += 1
    try:
        with pytest.raises(InvariantViolation, match="mapped_count_2m"):
            check_address_space(asp)
    finally:
        asp.mapped_count_2m[0] -= 1
    check_address_space(asp)


def test_detects_replica_byte_drift(checked_sim):
    asp = checked_sim.asp
    asp.replica_bytes += 4096
    try:
        with pytest.raises(InvariantViolation, match="replica byte counter"):
            check_address_space(asp)
    finally:
        asp.replica_bytes -= 4096
    check_address_space(asp)


def test_detects_leaked_frames(checked_sim):
    """Allocator usage with no backing mapping breaks conservation."""
    node = checked_sim.phys[0]
    node.alloc_small(1)
    try:
        with pytest.raises(InvariantViolation, match="page conservation"):
            check_page_conservation(checked_sim.asp)
    finally:
        node.free_small(1)
    check_page_conservation(checked_sim.asp)


def test_detects_bad_epoch_counters(checked_sim):
    counters = checked_sim.bank.epochs[-1]
    n_nodes = checked_sim.machine.n_nodes
    original = counters.traffic[0, 0]
    counters.traffic[0, 0] = -1.0
    try:
        with pytest.raises(InvariantViolation, match="negative traffic"):
            check_epoch_counters(counters, n_nodes)
    finally:
        counters.traffic[0, 0] = original
    check_epoch_counters(counters, n_nodes)
    with pytest.raises(InvariantViolation, match="shape"):
        check_epoch_counters(counters, n_nodes + 1)


def test_physical_memory_accounting_holds(checked_sim):
    check_physical_memory(checked_sim.phys)


# ----------------------------------------------------------------------
# Violations carry run context
# ----------------------------------------------------------------------
def test_engine_raises_with_run_context(monkeypatch):
    monkeypatch.delenv(CHECK_ENV, raising=False)
    sim = _make_sim(check_invariants=True)
    sim.asp.replica_bytes += 4096  # corrupt before the first epoch
    with pytest.raises(InvariantViolation) as excinfo:
        sim.run()
    exc = excinfo.value
    assert exc.workload == sim.instance.name
    assert exc.machine == sim.machine.name
    assert exc.policy == sim.policy.name
    assert exc.epoch == 0
    assert "replica byte counter" in exc.detail
    assert f"policy={sim.policy.name}" in str(exc)


def test_violation_message_without_context():
    exc = InvariantViolation("LAR 1.5 outside [0, 1]")
    assert str(exc) == "LAR 1.5 outside [0, 1]"
    assert exc.epoch is None
