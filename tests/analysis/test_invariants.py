"""Runtime invariant checker: enablement, overhead-freedom, detection.

The contract under test: with checking on, a healthy run is bit-
identical to an unchecked run and completes without violations; with
state corrupted in any of the ways the checker guards (conservation,
split bookkeeping, replica accounting, layout-version bumps, counter
sanity), it raises a
structured :class:`InvariantViolation` naming the run context.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import invariants
from repro.analysis.invariants import (
    InvariantChecker,
    InvariantViolation,
    check_address_space,
    check_epoch_counters,
    check_host_conservation,
    check_layout_version,
    check_physical_memory,
    layout_arrays,
)
from repro.experiments.configs import make_policy
from repro.hardware.machines import machine_by_name
from repro.options import CHECK_ENV
from repro.sim.config import SimConfig
from repro.sim.engine import Simulation
from repro.sim.host import Host
from repro.vm.address_space import BACKING_ID_2M_OFFSET, AddressSpace
from repro.vm.frame_allocator import PhysicalMemory
from repro.vm.layout import GRANULES_PER_2M
from repro.workloads.registry import get_workload

WORKLOAD = "CG.D"
MACHINE = "A"
POLICY = "carrefour-lp"  # exercises splits, migration and replication


def _make_sim() -> Simulation:
    return Simulation(
        machine_by_name(MACHINE),
        get_workload(WORKLOAD),
        make_policy(POLICY, seed=0),
        config=SimConfig.quick(seed=0),
    )


@pytest.fixture(scope="module")
def checked_run():
    """One completed, invariant-checked simulation shared by the module,
    with the epoch of every per-tenant check its host ran."""
    checked = []
    after = InvariantChecker.after_tenant_epoch

    def counted(checker, sim):
        checked.append(sim.epoch)
        after(checker, sim)

    with pytest.MonkeyPatch.context() as env:
        env.setenv(CHECK_ENV, "1")
        env.setattr(InvariantChecker, "after_tenant_epoch", counted)
        sim = _make_sim()
        sim.run()
    return sim, checked


@pytest.fixture(scope="module")
def checked_sim(checked_run):
    """The checked simulation.

    Corruption tests mutate its state and must restore it before
    returning.
    """
    return checked_run[0]


# ----------------------------------------------------------------------
# Enablement
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "value, on",
    [(None, False), ("1", True), ("yes", True), ("0", False), ("Off", False)],
)
def test_repro_check_alone_starts_the_checkers(monkeypatch, value, on):
    if value is None:
        monkeypatch.delenv(CHECK_ENV, raising=False)
    else:
        monkeypatch.setenv(CHECK_ENV, value)
    assert (Host(machine_by_name(MACHINE)).checker is not None) is on


# ----------------------------------------------------------------------
# Clean runs
# ----------------------------------------------------------------------
def test_checked_run_is_clean_and_checks_every_epoch(checked_run):
    sim, checked = checked_run
    assert checked == list(range(len(sim.bank.epochs)))
    assert checked


def test_checking_does_not_perturb_results(checked_sim, monkeypatch):
    def never(checker, sim):
        raise AssertionError("an unchecked run ran a check")

    monkeypatch.delenv(CHECK_ENV, raising=False)
    monkeypatch.setattr(InvariantChecker, "after_tenant_epoch", never)
    unchecked = _make_sim()
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


def test_detects_replicated_page_count_drift(checked_sim):
    asp = checked_sim.asp
    asp.replicated_pages += 1
    try:
        with pytest.raises(InvariantViolation, match="replicated page count"):
            check_address_space(asp)
    finally:
        asp.replicated_pages -= 1
    check_address_space(asp)


def _missed_layout_bump(monkeypatch):
    """Make layout-changing operations forget their layout bump."""
    monkeypatch.setattr(
        AddressSpace, "_bump_layout", AddressSpace._bump_version
    )


def test_detects_layout_change_without_layout_bump(monkeypatch):
    asp = AddressSpace(4 * GRANULES_PER_2M, PhysicalMemory([1 << 30] * 2))
    asp.premap_pattern_2m(0, np.array([0, 1], dtype=np.int8))
    version, arrays = asp.layout_version, layout_arrays(asp)
    asp.migrate_backing(BACKING_ID_2M_OFFSET, 1)  # layout untouched
    check_layout_version(asp, version, arrays)
    _missed_layout_bump(monkeypatch)
    asp.split_chunk(1)
    with pytest.raises(InvariantViolation, match="changed without a layout_version bump"):
        check_layout_version(asp, version, arrays)
    monkeypatch.undo()
    asp.collapse_chunk(1)  # a real bump: nothing to report
    check_layout_version(asp, version, arrays)


def test_checked_run_catches_a_missed_layout_bump(monkeypatch):
    monkeypatch.setenv(CHECK_ENV, "1")
    _missed_layout_bump(monkeypatch)
    sim = _make_sim()
    with pytest.raises(InvariantViolation, match="without a layout_version"):
        sim.run()


def test_detects_leaked_frames(checked_sim):
    """Allocator usage with no backing mapping breaks conservation."""
    node = checked_sim.phys[0]
    node.alloc_small(1)
    try:
        with pytest.raises(InvariantViolation, match="page conservation"):
            check_host_conservation(checked_sim.phys, [checked_sim.asp])
    finally:
        node.free_small(1)
    check_host_conservation(checked_sim.phys, [checked_sim.asp])


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
# How often each check runs
# ----------------------------------------------------------------------
def test_a_checked_host_checks_the_allocator_once_per_epoch(monkeypatch):
    """A run is a one-tenant host: each epoch, its checker checks the
    tenant, the allocator and the one address space holding frames
    once each, and nothing departs."""
    monkeypatch.setenv(CHECK_ENV, "1")
    calls = {}
    for name in (
        "check_address_space",
        "check_physical_memory",
        "_expected_bytes_per_node",
        "check_tenant_released",
    ):
        check = getattr(invariants, name)

        def counted(*args, _check=check, _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _check(*args)

        monkeypatch.setattr(invariants, name, counted)
    sim = _make_sim()
    sim.run()
    epochs = len(sim.bank.epochs)
    assert epochs > 0
    assert calls == {
        "check_address_space": epochs,
        "check_physical_memory": epochs,
        "_expected_bytes_per_node": epochs,
    }


# ----------------------------------------------------------------------
# Violations carry run context
# ----------------------------------------------------------------------
def test_engine_raises_with_run_context(monkeypatch):
    monkeypatch.setenv(CHECK_ENV, "1")
    sim = _make_sim()
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


def _split_a_huge_page_without_a_layout_bump(sim, monkeypatch):
    _missed_layout_bump(monkeypatch)
    chunk = int(np.flatnonzero(sim.asp.huge)[0])
    sim.asp.split_chunk(chunk)
    sim.asp.block_collapse(chunk)  # khugepaged must not undo the split


def _bump_first_chunk_count(sim, monkeypatch):
    sim.asp.mapped_count_2m[0] += 1


def _add_replica_bytes(sim, monkeypatch):
    sim.asp.replica_bytes += 4096


def _add_replicated_page(sim, monkeypatch):
    sim.asp.replicated_pages += 1


def _rewind_the_clock(sim, monkeypatch):
    sim.sim_time_s -= 1e3


def _forget_reclaimed_bytes(sim, monkeypatch):
    sim.asp.reclaimed_bytes -= 1 << 40


def _see_a_decision_unaccounted(sim, monkeypatch):
    sim.executor.decisions_seen += 1


def _migrate_outside_the_log(sim, monkeypatch):
    sim.executor.totals.bytes_migrated += 4096


#: State corruptions the per-tenant check must catch, each with the
#: detail its violation reports.
PLANTED = {
    "split bookkeeping": (_bump_first_chunk_count, "mapped_count_2m out of sync"),
    "replica bytes": (_add_replica_bytes, "replica byte counter"),
    "replicated pages": (_add_replicated_page, "replicated page count"),
    "layout version": (
        _split_a_huge_page_without_a_layout_bump,
        "changed without a layout_version bump",
    ),
    "clock": (_rewind_the_clock, "simulated time went backwards"),
    "footprint": (_forget_reclaimed_bytes, "footprint shrank"),
    "decisions": (_see_a_decision_unaccounted, "decision conservation"),
    "actions": (_migrate_outside_the_log, "action conservation broken"),
}


@pytest.mark.parametrize("corruption", sorted(PLANTED))
def test_a_corruption_between_epochs_raises_with_run_context(
    monkeypatch, corruption
):
    """Planted before the second epoch of a checked run, each
    corruption is reported by the check after that epoch."""
    plant, detail = PLANTED[corruption]
    monkeypatch.setenv(CHECK_ENV, "1")
    run_epoch = Simulation._run_epoch

    def planted(sim, epoch):
        if epoch == 1:
            plant(sim, monkeypatch)
        run_epoch(sim, epoch)

    monkeypatch.setattr(Simulation, "_run_epoch", planted)
    sim = _make_sim()
    with pytest.raises(InvariantViolation, match=detail) as excinfo:
        sim.run()
    exc = excinfo.value
    assert (exc.workload, exc.machine, exc.policy, exc.epoch) == (
        sim.instance.name, sim.machine.name, sim.policy.name, 1
    )


def test_violation_message_without_context():
    exc = InvariantViolation("LAR 1.5 outside [0, 1]")
    assert str(exc) == "LAR 1.5 outside [0, 1]"
    assert exc.epoch is None
