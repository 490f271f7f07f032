"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest


@pytest.fixture(scope="session", autouse=True)
def _hermetic_caches(tmp_path_factory):
    """Keep the suite hermetic: private result-cache dir, serial runs.

    The persistent cache goes to a session tmp dir (never the user's
    ``~/.cache/repro``) and worker fan-out defaults to serial so test
    timings stay stable; parallel behaviour is exercised explicitly in
    ``tests/experiments/test_parallel.py``.
    """
    import os

    cache_dir = tmp_path_factory.mktemp("repro-cache")
    old_dir = os.environ.get("REPRO_CACHE_DIR")
    old_jobs = os.environ.get("REPRO_JOBS")
    os.environ["REPRO_CACHE_DIR"] = str(cache_dir)
    os.environ.setdefault("REPRO_JOBS", "1")
    yield
    if old_dir is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old_dir
    if old_jobs is None:
        os.environ.pop("REPRO_JOBS", None)
    else:
        os.environ["REPRO_JOBS"] = old_jobs

from repro.hardware.machines import machine_a, machine_b
from repro.hardware.topology import NumaNode, NumaTopology
from repro.experiments.runner import run_benchmark
from repro.sim.config import SimConfig
from repro.vm.frame_allocator import PhysicalMemory

GIB = 1024**3


@pytest.fixture
def tiny_topo() -> NumaTopology:
    """A 2-node, 4-core machine for fast unit tests."""
    nodes = [NumaNode(node_id=i, n_cores=2, dram_bytes=2 * GIB) for i in range(2)]
    hops = np.array([[0, 1], [1, 0]])
    return NumaTopology(name="tiny", nodes=nodes, hop_matrix=hops, cpu_freq_hz=2e9)


@pytest.fixture
def quad_topo() -> NumaTopology:
    """A 4-node, 8-core machine for unit tests needing >2 nodes."""
    nodes = [NumaNode(node_id=i, n_cores=2, dram_bytes=2 * GIB) for i in range(4)]
    hops = np.array(
        [
            [0, 1, 1, 2],
            [1, 0, 2, 1],
            [1, 2, 0, 1],
            [2, 1, 1, 0],
        ]
    )
    return NumaTopology(name="quad", nodes=nodes, hop_matrix=hops, cpu_freq_hz=2e9)


@pytest.fixture
def tiny_phys(tiny_topo) -> PhysicalMemory:
    """Physical memory for the tiny machine."""
    return PhysicalMemory.for_topology(tiny_topo)


@pytest.fixture(scope="session")
def machine_a_topo() -> NumaTopology:
    """The paper's machine A (session-cached)."""
    return machine_a()


@pytest.fixture(scope="session")
def machine_b_topo() -> NumaTopology:
    """The paper's machine B (session-cached)."""
    return machine_b()


@pytest.fixture(scope="session")
def quick_config() -> SimConfig:
    """Reduced-cost config shared across integration tests.

    Results land in the session's result cache, so every test that asks
    for the same (workload, machine, policy) reuses one simulation.
    """
    return SimConfig.quick(seed=0)


@pytest.fixture(scope="session")
def run(quick_config):
    """Callable fixture: run (workload, machine, policy) with caching."""

    def _run(workload: str, machine: str, policy: str, **kwargs):
        return run_benchmark(workload, machine, policy, quick_config, **kwargs)

    return _run


@pytest.fixture
def refcount_only():
    """Reference counting alone frees objects while the test runs.

    The cyclic garbage collector is off and the stream-bank slot starts
    and ends empty, so an object outlives the test's references to it
    only if something in the program still refers to it.
    """
    import gc

    from repro.workloads.streambank import clear_stream_banks

    clear_stream_banks()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        clear_stream_banks()
