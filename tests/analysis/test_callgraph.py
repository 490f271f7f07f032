"""Unit tests for the whole-program symbol table and effect inference.

Each test builds a tiny in-memory project and checks the inferred
write-effect sets (or call-graph reachability) directly, so regressions
in the analyzer surface here before they surface as bogus R101/R104
findings on the real tree.
"""

from __future__ import annotations

from repro.analysis.callgraph import (
    GLOBAL_ROOT,
    Effect,
    module_name_for,
)
from tests.lint_helpers import project_from_sources


def analyzed(sources):
    project = project_from_sources(sources)
    project.analyze()
    return project


def effects_of(project, qualname):
    return {e.describe() for e in project.functions[qualname].effects}


# ----------------------------------------------------------------------
# Direct effects
# ----------------------------------------------------------------------
def test_attribute_write_on_parameter():
    project = analyzed({"src/m.py": "def f(sim):\n    sim.epoch = 1\n"})
    assert effects_of(project, "m.f") == {"sim.epoch"}


def test_subscript_write_collapses_onto_container():
    source = "def f(sim, i):\n    sim.weights[i] = 0.0\n"
    project = analyzed({"src/m.py": source})
    assert effects_of(project, "m.f") == {"sim.weights"}


def test_augassign_and_nested_attribute():
    source = "def f(sim):\n    sim.asp.replica_bytes += 4096\n"
    project = analyzed({"src/m.py": source})
    assert effects_of(project, "m.f") == {"sim.asp.replica_bytes"}


def test_builtin_mutator_marks_receiver():
    source = "def f(sim, x):\n    sim.bank.append(x)\n"
    project = analyzed({"src/m.py": source})
    assert effects_of(project, "m.f") == {"sim.bank"}


def test_global_write():
    source = "COUNT = 0\n\ndef f():\n    global COUNT\n    COUNT += 1\n"
    project = analyzed({"src/m.py": source})
    assert project.functions["m.f"].effects == {
        Effect(GLOBAL_ROOT, ("COUNT",))
    }


def test_pure_function_has_no_effects():
    source = "def f(sim):\n    total = sim.a + sim.b\n    return total\n"
    project = analyzed({"src/m.py": source})
    assert effects_of(project, "m.f") == set()


def test_local_alias_resolves_to_parameter_path():
    source = (
        "class C:\n"
        "    def f(self):\n"
        "        sim = self.sim\n"
        "        sim.epoch = 1\n"
    )
    project = analyzed({"src/m.py": source})
    assert effects_of(project, "m.C.f") == {"self.sim.epoch"}


def test_fresh_object_mutation_is_dropped():
    source = (
        "class Timer:\n"
        "    def __init__(self):\n"
        "        self.mark = 0\n"
        "\n"
        "def f():\n"
        "    t = Timer()\n"
        "    t.mark = 1\n"
        "    return t\n"
    )
    project = analyzed({"src/m.py": source})
    # The constructor writes its own (fresh) receiver; neither that nor
    # the local attribute write escapes f.
    assert effects_of(project, "m.f") == set()


def test_setattr_and_np_copyto_are_writes():
    source = (
        "import numpy as np\n"
        "\n"
        "def f(sim, out, src):\n"
        "    setattr(sim, 'epoch', 1)\n"
        "    np.copyto(out, src)\n"
    )
    project = analyzed({"src/m.py": source})
    assert effects_of(project, "m.f") == {"sim.?", "out"}


# ----------------------------------------------------------------------
# Transitive propagation
# ----------------------------------------------------------------------
def test_effects_propagate_through_calls():
    source = (
        "def poke(sim):\n"
        "    sim.epoch = 1\n"
        "\n"
        "def outer(sim):\n"
        "    poke(sim)\n"
        "\n"
        "def outermost(sim):\n"
        "    outer(sim)\n"
    )
    project = analyzed({"src/m.py": source})
    assert effects_of(project, "m.outer") == {"sim.epoch"}
    assert effects_of(project, "m.outermost") == {"sim.epoch"}


def test_effects_propagate_across_modules():
    sources = {
        "src/a.py": "def poke(sim):\n    sim.epoch = 1\n",
        "src/b.py": (
            "from a import poke\n"
            "\n"
            "def outer(sim):\n"
            "    poke(sim)\n"
        ),
    }
    project = analyzed(sources)
    assert effects_of(project, "b.outer") == {"sim.epoch"}


def test_method_call_binds_receiver_and_arguments():
    source = (
        "class M:\n"
        "    def store(self, v):\n"
        "        self.slot = v\n"
        "        v.tag = 1\n"
        "\n"
        "def f(m_obj, x):\n"
        "    m_obj.store(x)\n"
    )
    project = analyzed({"src/m.py": source})
    assert effects_of(project, "m.f") == {"m_obj.slot", "x.tag"}


def test_effects_on_caller_locals_stay_local():
    source = (
        "def poke(sim):\n"
        "    sim.epoch = 1\n"
        "\n"
        "def f():\n"
        "    box = object()\n"
        "    poke(box)\n"
    )
    project = analyzed({"src/m.py": source})
    assert effects_of(project, "m.f") == set()


def test_builtin_shadowed_names_never_resolve_to_project_methods():
    source = (
        "class Table:\n"
        "    def get(self, key):\n"
        "        self.hits = self.hits + 1\n"
        "        return key\n"
        "\n"
        "def f(sim, d):\n"
        "    return d.get('x')\n"
    )
    project = analyzed({"src/m.py": source})
    # d.get must not inherit Table.get's effects: .get on a dict is the
    # overwhelmingly common case and the name-based fallback would
    # poison every caller in the tree.
    assert effects_of(project, "m.f") == set()


def test_constructor_call_does_not_leak_receiver_effects():
    source = (
        "class Sim:\n"
        "    def __init__(self, machine):\n"
        "        self.machine = machine\n"
        "\n"
        "def f(machine):\n"
        "    return Sim(machine)\n"
    )
    project = analyzed({"src/m.py": source})
    assert effects_of(project, "m.f") == set()


# ----------------------------------------------------------------------
# Reachability and registries
# ----------------------------------------------------------------------
def test_reachable_from_returns_shortest_chains():
    source = (
        "def c():\n"
        "    return 3\n"
        "\n"
        "def b():\n"
        "    return c()\n"
        "\n"
        "def a():\n"
        "    b()\n"
        "    c()\n"
    )
    project = analyzed({"src/m.py": source})
    chains = project.reachable_from(["m.a"])
    assert chains["m.a"] == ("m.a",)
    assert chains["m.b"] == ("m.a", "m.b")
    assert chains["m.c"] == ("m.a", "m.c")  # direct edge wins over a->b->c


def test_reachability_does_not_include_unreachable_functions():
    source = "def a():\n    return 1\n\ndef lonely():\n    return 2\n"
    project = analyzed({"src/m.py": source})
    assert "m.lonely" not in project.reachable_from(["m.a"])


def test_registry_tuples_are_indexed():
    source = (
        "_RESULT_NEUTRAL = ('sim.profile', 'monitor.watch')\n"
        "_SIM_ENTRY_POINTS = ('Daemon.tick',)\n"
    )
    project = project_from_sources({"src/m.py": source})
    assert project.result_neutral == {"sim.profile", "monitor.watch"}
    assert project.entry_points == {"Daemon.tick"}


def test_module_name_for_strips_src_and_init():
    assert module_name_for("src/repro/vm/layout.py") == "repro.vm.layout"
    assert module_name_for("repro/sim/engine.py") == "repro.sim.engine"
    assert module_name_for("src/repro/__init__.py") == "repro"
    assert module_name_for("snippet.py") == "snippet"
