"""The import structure: lazy package roots and a warm path that loads
no simulation module.

Every package root resolves its exports on first access (PEP 562), so
a command imports only the modules it uses.  An artifact, run or
scenario served from the result cache loads the CLI, the experiment
layer, the config and the result types; the engine, its cost models,
the VM, workload models, policies and analyzers load at the first
simulation.
The gate checks run in fresh interpreters and compare exact module
sets, so they cannot flake.
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import subprocess
import sys
import types

import pytest

import repro

SRC = pathlib.Path(repro.__file__).parents[1]

LAZY_ROOTS = (
    "repro",
    "repro.hardware",
    "repro.sim",
    "repro.vm",
    "repro.workloads",
    "repro.core",
    "repro.experiments",
    "repro.analysis",
)

#: Modules a command served from the cache must not load.
SIMULATION_STACK = (
    "repro.sim.engine",
    "repro.sim.host",
    "repro.sim.decisions",
    "repro.vm.address_space",
    "repro.vm.frame_allocator",
    "repro.workloads.base",
    "repro.workloads.regions",
    "repro.workloads.streambank",
    "repro.hardware.ibs",
    # The cost models: only a simulation prices with them.
    "repro.hardware.caches",
    "repro.hardware.interconnect",
    "repro.hardware.mem_controller",
    "repro.hardware.tlb",
    "repro.vm.migration",
    "repro.vm.page_fault",
)

#: Exports that are plain data, so carry no ``__module__``.
DATA_EXPORTS = {
    "POLICIES": "repro.experiments.configs",
    "EXPERIMENTS": "repro.experiments.experiments",
    "ALL_RULES": "repro.analysis.rules",
    "PAGE_4K": "repro.vm.layout",
    "PAGE_2M": "repro.vm.layout",
    "PAGE_1G": "repro.vm.layout",
    "GRANULES_PER_2M": "repro.vm.layout",
    "GRANULES_PER_1G": "repro.vm.layout",
}

_LOADED = """
import json, sys
print(json.dumps({
    "repro": sorted(m for m in sys.modules if m.split(".")[0] == "repro"),
    "numpy": "numpy" in sys.modules,
}))
"""


def _env(cache_dir: pathlib.Path) -> dict:
    """A hermetic environment: this checkout, one cache dir, no knobs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    env["REPRO_JOBS"] = "1"
    return env


def _python(code: str, env: dict) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded_after(statement: str, env: dict) -> dict:
    """The repro modules (and whether numpy) loaded by ``statement``."""
    return json.loads(_python(statement + "\n" + _LOADED, env))


def _warm_modules(argv, env):
    """Run the command cold, then warm; return the warm run's modules.

    Both runs must print the same report.
    """
    script = (
        "import contextlib, io, json, sys\n"
        "from repro.cli import main\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    code = main({list(argv)!r})\n"
        "print(json.dumps({'code': code, 'stdout': out.getvalue(),"
        " 'repro': sorted(m for m in sys.modules"
        " if m.split('.')[0] == 'repro')}))\n"
    )
    cold = json.loads(_python(script, env))
    warm = json.loads(_python(script, env))
    assert cold["code"] == warm["code"] == 0
    assert warm["stdout"] == cold["stdout"]
    return warm["repro"]


def _assert_no_simulation_stack(modules):
    stack = [m for m in modules if m in SIMULATION_STACK]
    stack += [
        m for m in modules if m.startswith(("repro.core", "repro.analysis"))
    ]
    assert stack == []


class TestImportGate:
    def test_import_repro_loads_only_the_root(self, tmp_path):
        loaded = _loaded_after("import repro", _env(tmp_path))
        assert loaded == {"repro": ["repro"], "numpy": False}

    @pytest.mark.parametrize("root", LAZY_ROOTS[1:])
    def test_a_package_root_loads_no_module(self, root, tmp_path):
        loaded = _loaded_after(f"import {root}", _env(tmp_path))
        assert loaded == {"repro": ["repro", root], "numpy": False}

    def test_unpickling_a_result_loads_no_simulation_stack(self, tmp_path):
        loaded = _loaded_after("import repro.sim.results", _env(tmp_path))
        assert loaded["repro"] == [
            "repro",
            "repro.errors",
            "repro.hardware",
            "repro.hardware.counters",
            "repro.sim",
            "repro.sim.policy",
            "repro.sim.results",
            "repro.sim.tracker",
            "repro.vm",
            "repro.vm.layout",
        ]

    def test_warm_run_loads_no_simulation_stack(self, tmp_path):
        modules = _warm_modules(
            ["run", "Kmeans", "--machine", "A", "--policy", "linux-4k",
             "--quick", "--scale", "0.25"],
            _env(tmp_path),
        )
        _assert_no_simulation_stack(modules)
        assert "repro.experiments.runner" in modules

    def test_warm_artifact_loads_no_simulation_stack(self, tmp_path):
        modules = _warm_modules(["table1", "--quick"], _env(tmp_path))
        _assert_no_simulation_stack(modules)
        assert "repro.experiments.experiments" in modules

    def test_warm_scenario_loads_no_simulation_stack(self, tmp_path):
        modules = _warm_modules(
            ["scenario", "--machine", "A", "--trace", "0:Kmeans:thp",
             "--max-tenants", "1", "--tenant-epochs", "2", "--quick",
             "--scale", "0.25"],
            _env(tmp_path),
        )
        _assert_no_simulation_stack(modules)
        assert "repro.experiments.scenario_runner" in modules

    def test_submodule_imports_through_lazy_roots(self, tmp_path):
        # The import forms perfbench/traced.py uses to patch each layer.
        loaded = _loaded_after(
            "from repro.core import metrics, reactive\n"
            "from repro.experiments import cache, parallel, runner,"
            " scenario_runner\n"
            "from repro.sim import engine, host\n"
            "from repro.vm import address_space\n"
            "from repro.workloads import streambank\n"
            "assert runner.__name__ == 'repro.experiments.runner'\n"
            "assert engine.__name__ == 'repro.sim.engine'\n",
            _env(tmp_path),
        )
        assert "repro.sim.engine" in loaded["repro"]


def _public_names(root: types.ModuleType) -> set:
    return {
        name
        for name in dir(root)
        if not name.startswith("_")
        and not isinstance(getattr(root, name), types.ModuleType)
    }


@pytest.mark.parametrize("root_name", LAZY_ROOTS)
class TestPublicApi:
    def test_exports_resolve_to_their_defining_module(self, root_name):
        root = importlib.import_module(root_name)
        for name in root.__all__:
            if name == "__version__":
                continue
            value = getattr(root, name)
            home = DATA_EXPORTS.get(name) or value.__module__
            assert home.startswith(f"{root_name}."), (name, home)
            assert getattr(importlib.import_module(home), name) is value

    def test_dir_lists_exactly_the_exports(self, root_name):
        root = importlib.import_module(root_name)
        assert set(root.__all__) <= set(dir(root))
        assert _public_names(root) == set(root.__all__) - {"__version__"}

    def test_star_import_binds_every_export(self, root_name):
        root = importlib.import_module(root_name)
        namespace: dict = {}
        exec(f"from {root_name} import *", namespace)
        for name in root.__all__:
            assert namespace[name] is getattr(root, name)

    def test_unknown_name_raises_attribute_error(self, root_name):
        root = importlib.import_module(root_name)
        message = f"module '{root_name}' has no attribute 'no_such_export'"
        with pytest.raises(AttributeError, match=message):
            root.no_such_export
