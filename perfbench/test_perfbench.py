"""Tests of the benchmark's own checks.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
None of them runs a simulation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def invocation(stdout: str, returncode: int = 0) -> run.Invocation:
    return run.Invocation(1.0, 1.0, returncode, stdout, "boom")


def flip_one_byte(text: str) -> str:
    i = len(text) // 2
    return text[:i] + chr(ord(text[i]) ^ 1) + text[i + 1:]


def references():
    for workload in sorted(run.WORKLOADS):
        for kind in sorted(run.load_reference(workload, 0)):
            yield workload, kind


@pytest.mark.parametrize("workload,kind", list(references()))
def test_one_byte_change_to_a_reference_is_a_failure(workload, kind, tmp_path):
    output = run.load_reference(workload, 0)
    intact = run.OutputCheck(run.load_reference(workload, 0))
    assert intact.check("intact", invocation(output["stdout"]), output)
    assert (intact.attempted, intact.failed) == (1, 0)

    pinned = json.loads((run.REFERENCE_DIR / f"{workload}.json").read_text())
    pinned["0"][kind] = flip_one_byte(pinned["0"][kind])
    (tmp_path / f"{workload}.json").write_text(json.dumps(pinned))
    tampered = run.OutputCheck(run.load_reference(workload, 0, tmp_path))
    assert not tampered.check("tampered", invocation(output["stdout"]), output)
    assert (tampered.attempted, tampered.failed) == (1, 1)


def test_unpinned_seed_must_agree_with_the_first_invocation():
    check = run.OutputCheck(run.load_reference("figure3", -1))
    assert not check.pinned
    assert check.check("cold", invocation("report\n"), {"stdout": "report\n"})
    assert check.check("warm", invocation("report\n"), {"stdout": "report\n"})
    assert not check.check("warm", invocation("rePort\n"), {"stdout": "rePort\n"})
    assert (check.attempted, check.failed) == (3, 1)


def test_non_zero_exit_is_a_failure():
    check = run.OutputCheck(None)
    assert not check.check("crash", invocation("", returncode=1))
    assert (check.attempted, check.failed) == (1, 1)


def test_every_pinned_reference_parses():
    for workload, workload_def in run.WORKLOADS.items():
        pinned = json.loads((run.REFERENCE_DIR / f"{workload}.json").read_text())
        kinds = {"stdout"} if workload_def.pooled else {"stdout", "digest"}
        assert pinned and all(set(v) == kinds for v in pinned.values())


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.LAYER_UNITS
    layers = json.loads((run.HERE / "layers.json").read_text())
    mapped = [m for layer in layers["layers"] for m in layer["metrics"]]
    assert sorted(mapped) == sorted(run.LAYER_UNITS)
    assert set(layers["workloads"]) == set(run.WORKLOADS)


def test_self_times_subtract_direct_children_only():
    spans = [
        ["invocation", -1, 0.0, 10.0],
        ["run", 0, 1.0, 5.0],
        ["epoch", 1, 1.5, 2.5],
        ["epoch", 1, 3.0, 4.0],
        ["run", 0, 6.0, 9.0],
    ]
    assert run.self_times(spans) == [3.0, 2.0, 1.0, 1.0, 3.0]


def test_fails_without_a_source_tree(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "figure3",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not Path(tmp_path / ".perfbench").exists()
