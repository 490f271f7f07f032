"""Tests for :class:`repro.options.RuntimeOptions`, the one parser of
the ``REPRO_*`` environment variables."""

from __future__ import annotations

import ast
import dataclasses
import pathlib
from typing import List

import pytest

import repro
from repro import options
from repro.errors import ConfigurationError
from repro.options import (
    CACHE_DIR_ENV,
    CACHE_ENABLE_ENV,
    CHECK_ENV,
    FALSE_VALUES,
    JOBS_ENV,
    STREAM_CACHE_ENV,
    TRACE_FILE_ENV,
    TRUE_VALUES,
    RuntimeOptions,
)

SWITCHES = {
    CACHE_ENABLE_ENV: "cache",
    CHECK_ENV: "check",
}


def test_unset_means_defaults():
    assert RuntimeOptions.from_env({}) == RuntimeOptions()
    assert RuntimeOptions().cache is True
    assert RuntimeOptions().check is False


def test_empty_or_blank_reads_as_unset():
    environ = {name: "  " for name in SWITCHES}
    environ.update({JOBS_ENV: "", CACHE_DIR_ENV: " ", TRACE_FILE_ENV: ""})
    assert RuntimeOptions.from_env(environ) == RuntimeOptions()


@pytest.mark.parametrize("name, field", sorted(SWITCHES.items()))
def test_one_switch_vocabulary(name, field):
    for value in TRUE_VALUES + ("ON", " Yes "):
        assert getattr(RuntimeOptions.from_env({name: value}), field) is True
    for value in FALSE_VALUES + ("Off", "FALSE"):
        assert getattr(RuntimeOptions.from_env({name: value}), field) is False


@pytest.mark.parametrize("name", sorted(SWITCHES))
def test_switch_outside_vocabulary_rejected(name):
    with pytest.raises(ConfigurationError) as err:
        RuntimeOptions.from_env({name: "maybe"})
    message = str(err.value)
    assert message.startswith(f"{name}='maybe' is not on/off")
    for value in TRUE_VALUES + FALSE_VALUES:
        assert value in message


def test_jobs_must_be_an_integer():
    assert RuntimeOptions.from_env({JOBS_ENV: " 3 "}).jobs == 3
    with pytest.raises(ConfigurationError, match="REPRO_JOBS='two'"):
        RuntimeOptions.from_env({JOBS_ENV: "two"})


@pytest.mark.parametrize("value", ["0", "-3"])
def test_jobs_below_one_rejected(value):
    with pytest.raises(ConfigurationError) as err:
        RuntimeOptions.from_env({JOBS_ENV: value})
    assert str(err.value) == (
        f"REPRO_JOBS={value!r} is not a count of at least 1;"
        " use 1 for serial runs"
    )
    assert RuntimeOptions.from_env({JOBS_ENV: "1"}).jobs == 1


def test_paths():
    options = RuntimeOptions.from_env(
        {
            CACHE_DIR_ENV: "/tmp/results",
            STREAM_CACHE_ENV: "/tmp/streams",
            TRACE_FILE_ENV: "/tmp/trace.jsonl",
        }
    )
    assert options.cache_dir == "/tmp/results"
    assert options.stream_cache == "/tmp/streams"
    assert options.trace_file == "/tmp/trace.jsonl"


def test_read_from_the_process_environment_on_every_call(monkeypatch):
    monkeypatch.setenv(CHECK_ENV, "1")
    assert RuntimeOptions.from_env().check is True
    monkeypatch.setenv(CHECK_ENV, "0")
    assert RuntimeOptions.from_env().check is False


@pytest.mark.parametrize("name", ["REPRO_PROFILE", "REPRO_TRACE"])
@pytest.mark.parametrize("value", ["1", "0", "maybe", "2"])
def test_retired_variables_are_not_read(name, value):
    """A leftover ``REPRO_PROFILE``/``REPRO_TRACE`` from an older
    checkout's environment is neither parsed nor rejected."""
    assert RuntimeOptions.from_env({name: value}) == RuntimeOptions()


def test_six_variables():
    names = {
        value for key, value in vars(options).items() if key.endswith("_ENV")
    }
    assert names == {
        "REPRO_JOBS",
        "REPRO_CACHE",
        "REPRO_CACHE_DIR",
        "REPRO_STREAM_CACHE",
        "REPRO_CHECK",
        "REPRO_TRACE_FILE",
    }
    assert len(dataclasses.fields(RuntimeOptions)) == len(names)


def _is_environ(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "environ"
        and isinstance(node.value, ast.Name)
        and node.value.id == "os"
    )


def environment_reads(source: str) -> List[str]:
    """``line: expression`` for every ``os.environ``/``os.getenv`` read
    whose key is not a string literal outside the ``REPRO_`` namespace."""
    found = []
    for node in ast.walk(ast.parse(source)):
        key = None
        if isinstance(node, ast.Call) and node.args:
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("get", "setdefault", "pop")
                and _is_environ(func.value)
            ) or (
                isinstance(func, ast.Attribute)
                and func.attr == "getenv"
                and isinstance(func.value, ast.Name)
                and func.value.id == "os"
            ):
                key = node.args[0]
        elif (
            isinstance(node, ast.Subscript)
            and isinstance(node.ctx, ast.Load)
            and _is_environ(node.value)
        ):
            key = node.slice
        elif (
            isinstance(node, ast.Compare)
            and isinstance(node.ops[0], (ast.In, ast.NotIn))
            and _is_environ(node.comparators[0])
        ):
            key = node.left
        if key is None:
            continue
        literal = isinstance(key, ast.Constant) and isinstance(key.value, str)
        if not literal or key.value.startswith("REPRO_"):
            found.append(f"{node.lineno}: {ast.unparse(node)}")
    return found


def test_only_options_reads_repro_variables():
    """Every ``REPRO_*`` read goes through :class:`RuntimeOptions`;
    other modules may only read variables outside that namespace, by
    literal name."""
    assert environment_reads('import os\nos.environ.get("REPRO_JOBS")\n')
    assert environment_reads("import os\nos.environ[JOBS_ENV]\n")
    assert environment_reads('import os\nos.getenv("REPRO_CHECK", "0")\n')
    assert environment_reads('import os\n"REPRO_TRACE" in os.environ\n')
    assert not environment_reads(
        'import os\nos.environ.get("XDG_CACHE_HOME")\nos.environ[JOBS_ENV] = "1"\n'
    )
    package = pathlib.Path(repro.__file__).parent
    offenders = {}
    for path in sorted(package.rglob("*.py")):
        if path.name == "options.py" and path.parent == package:
            continue
        reads = environment_reads(path.read_text(encoding="utf-8"))
        if reads:
            offenders[str(path.relative_to(package))] = reads
    assert offenders == {}
