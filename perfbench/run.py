"""End-to-end benchmark of the paper's artifacts, cold and warm.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload figure3 --seed 0 --seconds 15 --trace 0

Each workload is one ``repro`` command, run the way a user runs it: a
fresh interpreter per invocation, first against an empty result cache
(cold), then again against the primed one (warm).  Every invocation runs
with all ``REPRO_*`` variables removed from its environment and its own
result-cache directory under ``.perfbench/`` in the checkout.  Each
invocation's output is compared with the reference pinned in
``perfbench/reference`` for the seed; for a seed with no pinned
reference, every invocation must agree with the first cold one.

``--trace 0`` measures, for ``--seconds`` seconds, one cold invocation
and then warm invocations alternating with bare imports of ``repro.cli``,
and reports the end-to-end metrics: ``cold_s``, ``warm_s`` and
``setup_s`` (medians) and ``peak_rss_mb``.

``--trace 1`` makes one traced pass instead and reports the per-layer
metrics listed in ``perfbench/layers.json``: an untraced serial and an
untraced pooled cold invocation, a traced serial cold and warm
invocation (``perfbench/traced.py``), and a paired profiler/checker
overhead run (``perfbench/overhead.py``).

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; lines before it record the
machine (cores, pool backend, Python and numpy versions) and the samples
behind each median.
"""

from __future__ import annotations

import argparse
import dataclasses
import difflib
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE_DIR = HERE / "reference"

SCENARIO_ARGS = (
    "scenario", "--machine", "B", "--arrival", "closed-loop",
    "--target-active", "3", "--workloads", "SSCA.20,CG.D,UA.B,Kmeans",
    "--policies", "carrefour-lp,thp,carrefour-2m", "--max-tenants", "8",
    "--pressure", "0.5", "--quick",
)


@dataclasses.dataclass(frozen=True)
class Workload:
    """One ``repro`` command line."""

    args: tuple
    #: Whether the command fans its runs out over the process pool (and
    #: so takes ``--jobs``); a scenario runs in one process.
    pooled: bool

    def argv(self, seed: int, jobs: int) -> List[str]:
        argv = [*self.args, "--seed", str(seed)]
        if self.pooled:
            argv += ["--jobs", str(jobs)]
        return argv


WORKLOADS: Dict[str, Workload] = {
    "figure3": Workload(("figure3", "--quick"), pooled=True),
    "figure1": Workload(("figure1", "--quick"), pooled=True),
    "colocation": Workload(SCENARIO_ARGS, pooled=False),
}

#: Least number of warm invocations after the cold one, each paired
#: with one timed bare CLI import; more follow until the run's time is
#: up.  Sampling over the whole run matters: on a shared machine the
#: speed of a short invocation switches between states every few
#: seconds.
MIN_WARM = 8
#: Every invocation of one benchmark run must end by this many seconds
#: after the run started.
DEADLINE_S = 170.0

ENGINE_PHASES = (
    "premap", "stream_bank", "streams", "tlb", "tracker", "ibs",
    "pricing", "maintenance", "policy", "other",
)

END_TO_END = {
    "cold_s": "s",
    "warm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics reported by ``--trace 1``: name -> unit.
LAYER_UNITS: Dict[str, str] = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "cache.get_s": "s",
    "cache.get_n": "count",
    "cache.hit_n": "count",
    "cache.put_s": "s",
    "cache.put_n": "count",
    "cache.bytes": "bytes",
    "runner.execute_run_s": "s",
    "runner.execute_run_n": "count",
    "runner.execute_run_p50_s": "s",
    "runner.execute_run_max_s": "s",
    "runner.self_s": "s",
    "parallel.serial_s": "s",
    "parallel.pool_s": "s",
    "parallel.speedup": "ratio",
    "parallel.efficiency": "ratio",
    "host.step_epoch_s": "s",
    "host.step_epoch_n": "count",
    "engine.epochs_n": "count",
    **{f"engine.{phase}_s": "s" for phase in ENGINE_PHASES},
    "policy.interval_n": "count",
    "policy.build_table_s": "s",
    "policy.build_table_n": "count",
    "policy.estimate_lar_s": "s",
    "policy.apply_s": "s",
    "policy.decide_s": "s",
    "policy.decisions_n": "count",
    "policy.applied_n": "count",
    "policy.applied_ratio": "ratio",
    "vm.migrate_backing_s": "s",
    "vm.migrate_backing_n": "count",
    "vm.backing_is_live_s": "s",
    "vm.backing_is_live_n": "count",
    "vm.split_n": "count",
    "vm.bytes_migrated": "bytes",
    "streambank.get_bank_s": "s",
    "streambank.get_bank_n": "count",
    "streambank.epoch_arrays_s": "s",
    "streambank.epoch_arrays_n": "count",
    "host.apply_pressure_s": "s",
    "host.tenants_n": "count",
    "host.oom_kill_n": "count",
    "trace.overhead_pct": "%",
    "profile.overhead_pct": "%",
    "invariants.overhead_pct": "%",
}


class BenchError(Exception):
    """The benchmark cannot run here (for example, no source tree)."""


# ----------------------------------------------------------------------
# Invocations
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Invocation:
    """One finished child process."""

    wall_s: float
    peak_rss_mb: float
    returncode: int
    stdout: str
    stderr: str


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


class Runner:
    """Starts hermetic child processes inside one scratch directory."""

    def __init__(self, work: Path, deadline: float) -> None:
        self.work = work
        self.deadline = deadline

    def fresh_dir(self, prefix: str) -> Path:
        return Path(tempfile.mkdtemp(prefix=prefix, dir=self.work))

    @staticmethod
    def env(cache_dir: Path, **extra: str) -> Dict[str, str]:
        """The parent's environment minus every ``REPRO_*`` variable."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(SRC)
        env["REPRO_CACHE_DIR"] = str(cache_dir)
        env.update(extra)
        return env

    def invoke(self, argv: List[str], env: Dict[str, str]) -> Invocation:
        """Run ``argv`` to completion; wall time and the peak RSS of its
        whole process tree (``wait4`` folds in every reaped descendant,
        pool workers included)."""
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return Invocation(0.0, 0.0, -1, "", "benchmark deadline passed")
        err_path = self.work / "stderr.txt"
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                stderr=err, start_new_session=True,
            )
            timer = threading.Timer(timeout, _kill_group, (proc.pid,))
            timer.start()
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                _kill_group(proc.pid)
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        # Nothing the invocation started may outlive it.
        _kill_group(proc.pid)
        return Invocation(
            wall_s=wall,
            peak_rss_mb=usage.ru_maxrss / 1024.0,
            returncode=proc.returncode,
            stdout=out.decode("utf-8", "replace"),
            stderr=err_path.read_text("utf-8", "replace"),
        )


def cli(argv: List[str]) -> List[str]:
    return [sys.executable, "-m", "repro.cli", *argv]


def helper(script: str, args: List[object], argv: List[str]) -> List[str]:
    return [sys.executable, str(HERE / script), *map(str, args), "--", *argv]


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def load_reference(workload: str, seed: int,
                   reference_dir: Path = REFERENCE_DIR) -> Optional[dict]:
    """The pinned outputs for ``(workload, seed)``, or ``None``."""
    path = reference_dir / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(seed))


def scenario_digest(cache_dir: Path) -> str:
    """Each tenant's exact runtime and status plus the spawn/exit timeline,
    read from the one ``ScenarioResult`` a cold scenario stores."""
    entries = sorted(cache_dir.glob("*.pkl"))
    if len(entries) != 1:
        return f"expected one cache entry, found {len(entries)}\n"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    with open(entries[0], "rb") as fh:
        result = pickle.load(fh)
    lines = [
        f"host_epochs={result.host_epochs} pressure_bytes={result.pressure_bytes}"
    ]
    for t in result.tenants:
        runtime = (
            float(t.result.runtime_s).hex() if t.result is not None else "-"
        )
        lines.append(
            f"tenant {t.tenant_id} {t.workload}/{t.policy}"
            f" epochs {t.arrival_epoch}..{t.exit_epoch} [{t.status}]"
            f" runtime={runtime}"
        )
    lines += [f"{epoch} {event} {tid}" for epoch, event, tid in result.events]
    return "\n".join(lines) + "\n"


class OutputCheck:
    """Counts invocations, and those that failed or printed wrong output.

    ``expected`` maps an output kind (``stdout``, ``digest``) to its
    pinned text.  A kind with no pinned text is pinned by the first
    invocation that reports it, so later ones must agree with it.
    """

    def __init__(self, expected: Optional[dict]) -> None:
        self.pinned = expected is not None
        self.expected = dict(expected or {})
        self.attempted = 0
        self.failed = 0

    def check(self, label: str, inv: Invocation,
              observed: Optional[Dict[str, str]] = None) -> bool:
        self.attempted += 1
        problem = None
        if inv.returncode != 0:
            problem = f"exit code {inv.returncode}\n{inv.stderr[-2000:]}"
        else:
            for kind, text in (observed or {}).items():
                want = self.expected.setdefault(kind, text)
                if text != want:
                    source = "pinned reference" if self.pinned else "first cold run"
                    diff = difflib.unified_diff(
                        want.splitlines(), text.splitlines(),
                        source, label, lineterm="", n=1,
                    )
                    problem = f"{kind} differs:\n" + "\n".join(list(diff)[:30])
                    break
        if problem is not None:
            self.failed += 1
            print(f"FAIL {label}: {problem}", file=sys.stderr)
        return problem is None


# ----------------------------------------------------------------------
# The measured passes
# ----------------------------------------------------------------------
class Bench:
    """One benchmark run of one workload and seed."""

    def __init__(self, name: str, seed: int, runner: Runner,
                 check: OutputCheck) -> None:
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.runner = runner
        self.check = check

    def observe(self, inv: Invocation, cache_dir: Optional[Path]) -> Dict[str, str]:
        observed = {"stdout": inv.stdout}
        if cache_dir is not None and not self.workload.pooled and inv.returncode == 0:
            observed["digest"] = scenario_digest(cache_dir)
        return observed

    def cold(self, label: str, argv: List[str], **env: str) -> tuple:
        """One invocation against a fresh, empty result cache."""
        cache_dir = self.runner.fresh_dir("cache")
        inv = self.runner.invoke(argv, self.runner.env(cache_dir, **env))
        self.check.check(label, inv, self.observe(inv, cache_dir))
        return inv, cache_dir

    def warm(self, label: str, argv: List[str], cache_dir: Path, **env: str) -> Invocation:
        inv = self.runner.invoke(argv, self.runner.env(cache_dir, **env))
        self.check.check(label, inv, self.observe(inv, None))
        return inv

    def environment(self, jobs: int) -> dict:
        """Untimed first import: compiles bytecode, records the machine."""
        code = (
            "import json, platform, numpy, repro.cli\n"
            "from repro.experiments.parallel import backend_choice, resolve_jobs\n"
            "backend, reason = backend_choice()\n"
            f"print(json.dumps({{'jobs': resolve_jobs({jobs}, backend),"
            " 'backend': backend, 'backend_reason': reason,"
            " 'python': platform.python_version(),"
            " 'numpy': numpy.__version__}))\n"
        )
        inv = self.runner.invoke(
            [sys.executable, "-c", code],
            self.runner.env(self.runner.fresh_dir("cache")),
        )
        self.check.check("environment", inv)
        info = {"nproc": jobs}
        if inv.returncode == 0:
            info.update(json.loads(inv.stdout))
        return info

    def end_to_end(self, seconds: float, jobs: int) -> Dict[str, List[float]]:
        """One cold invocation, then warm invocations alternating with
        bare CLI imports until ``seconds`` have passed."""
        argv = cli(self.workload.argv(self.seed, jobs))
        setup_argv = [sys.executable, "-c", "import repro.cli"]
        setup_env = self.runner.env(self.runner.fresh_dir("cache"))
        samples: Dict[str, List[float]] = {
            "cold_s": [], "warm_s": [], "setup_s": [], "peak_rss_mb": [],
        }
        start = time.monotonic()
        inv, cache_dir = self.cold("cold", argv)
        if inv.returncode == 0:
            samples["cold_s"].append(inv.wall_s)
            samples["peak_rss_mb"].append(inv.peak_rss_mb)
        i = 0
        while i < MIN_WARM or time.monotonic() - start < seconds:
            inv = self.runner.invoke(setup_argv, setup_env)
            if self.check.check(f"setup {i}", inv):
                samples["setup_s"].append(inv.wall_s)
            inv = self.warm(f"warm {i}", argv, cache_dir)
            if inv.returncode == 0:
                samples["warm_s"].append(inv.wall_s)
            i += 1
            if time.monotonic() > self.runner.deadline:
                break
        return samples

    def traced(self, jobs: int) -> Dict[str, float]:
        """One traced pass; returns the per-layer metrics."""
        serial_argv = self.workload.argv(self.seed, 1)
        serial, _ = self.cold("serial", cli(serial_argv))
        if self.workload.pooled:
            pool, _ = self.cold("pool", cli(self.workload.argv(self.seed, jobs)))
            workers = jobs
        else:
            pool, workers = serial, 1
        work = self.runner.work
        cold_path, warm_path = work / "trace-cold.json", work / "trace-warm.json"
        traced_argv = helper("traced.py", [cold_path], serial_argv)
        traced, cache_dir = self.cold("traced cold", traced_argv, REPRO_PROFILE="1")
        self.warm(
            "traced warm", helper("traced.py", [warm_path], serial_argv),
            cache_dir, REPRO_PROFILE="1",
        )
        # Pair runs only while the plain remainder can still finish in time.
        overhead_path = work / "overhead.jsonl"
        pairing_s = self.runner.deadline - time.monotonic() - 1.2 * pool.wall_s - 5
        self.cold("overhead", helper(
            "overhead.py", [overhead_path, max(pairing_s, 0.0)],
            self.workload.argv(self.seed, jobs),
        ))
        if self.check.failed:
            return {}
        paired = [json.loads(line) for line in overhead_path.read_text().splitlines()]
        if not paired or any(run["mismatched"] for run in paired):
            self.check.failed += 1
            print("FAIL overhead: no run paired, or a profiled or checked run"
                  " changed its result", file=sys.stderr)
            return {}
        overhead = {
            name: sum(run["seconds"][name] for run in paired)
            for name in paired[0]["seconds"]
        }
        return layer_metrics(
            json.loads(cold_path.read_text()),
            json.loads(warm_path.read_text()),
            serial_s=serial.wall_s,
            pool_s=pool.wall_s,
            workers=workers,
            traced_s=traced.wall_s,
            overhead=overhead,
        )


# ----------------------------------------------------------------------
# Per-layer metrics from the trace files
# ----------------------------------------------------------------------
def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0.0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, _, start, end) in enumerate(spans)]


def layer_metrics(cold: dict, warm: dict, *, serial_s: float, pool_s: float,
                  workers: int, traced_s: float, overhead: dict) -> Dict[str, float]:
    """Per-layer metrics from the traced cold and warm invocations' trace
    files, the untraced serial and pooled wall times, and ``overhead``:
    summed seconds per variant (off / profile / check) of the paired runs."""
    spans = cold["spans"]
    own = self_times(spans)

    def durations(name: str) -> List[float]:
        return [end - start for n, _, start, end in spans if n == name]

    def self_sum(name: str) -> float:
        return sum(own[i] for i, span in enumerate(spans) if span[0] == name)

    counters = cold["counters"]

    def calls(name: str) -> int:
        return counters[name][0]

    def seconds(name: str) -> float:
        return counters[name][1]

    def in_interval_s(name: str) -> float:
        return counters[name][3]

    runs = durations("run")
    intervals = durations("interval")
    apply_s = sum(
        in_interval_s(name)
        for name in ("migrate_backing", "migrate_granules", "replicate_backing",
                     "split_backing_page")
    )
    build_table_s = in_interval_s("build_table")
    estimate_lar_s = in_interval_s("estimate_lar")
    tenant = cold["tenant"]
    phases = cold["engine_phase_s"]
    both = (cold, warm)
    speedup = serial_s / pool_s

    def overhead_pct(variant: str) -> float:
        return 100.0 * (overhead[variant] - overhead["off"]) / overhead["off"]

    return {
        "cli.import_s": cold["import_s"],
        "cli.self_s": self_sum("invocation"),
        "cache.get_s": sum(t["counters"]["cache_get"][1] for t in both),
        "cache.get_n": sum(t["counters"]["cache_get"][0] for t in both),
        "cache.hit_n": sum(t["cache_hits"] for t in both),
        "cache.put_s": sum(t["counters"]["cache_put"][1] for t in both),
        "cache.put_n": sum(t["counters"]["cache_put"][0] for t in both),
        "cache.bytes": sum(t["cache_bytes"] for t in both),
        "runner.execute_run_s": sum(runs),
        "runner.execute_run_n": len(runs),
        "runner.execute_run_p50_s": statistics.median(runs) if runs else 0.0,
        "runner.execute_run_max_s": max(runs, default=0.0),
        "runner.self_s": self_sum("run"),
        "parallel.serial_s": serial_s,
        "parallel.pool_s": pool_s,
        "parallel.speedup": speedup,
        "parallel.efficiency": speedup / workers,
        "host.step_epoch_s": sum(durations("epoch")),
        "host.step_epoch_n": len(durations("epoch")),
        "engine.epochs_n": tenant["epochs"],
        **{f"engine.{p}_s": phases.get(p, 0.0) for p in ENGINE_PHASES},
        "policy.interval_n": len(intervals),
        "policy.build_table_s": build_table_s,
        "policy.build_table_n": counters["build_table"][2],
        "policy.estimate_lar_s": estimate_lar_s,
        "policy.apply_s": apply_s,
        "policy.decide_s": sum(intervals) - build_table_s - estimate_lar_s - apply_s,
        "policy.decisions_n": tenant["decisions"],
        "policy.applied_n": tenant["applied"],
        "policy.applied_ratio": (
            tenant["applied"] / tenant["decisions"] if tenant["decisions"] else 0.0
        ),
        "vm.migrate_backing_s": seconds("migrate_backing"),
        "vm.migrate_backing_n": calls("migrate_backing"),
        "vm.backing_is_live_s": seconds("backing_is_live"),
        "vm.backing_is_live_n": calls("backing_is_live"),
        "vm.split_n": tenant["splits"],
        "vm.bytes_migrated": tenant["bytes_migrated"],
        "streambank.get_bank_s": seconds("get_bank"),
        "streambank.get_bank_n": calls("get_bank"),
        "streambank.epoch_arrays_s": seconds("epoch_arrays"),
        "streambank.epoch_arrays_n": calls("epoch_arrays"),
        "host.apply_pressure_s": seconds("apply_pressure"),
        "host.tenants_n": calls("admit"),
        "host.oom_kill_n": tenant["oom_killed"],
        "trace.overhead_pct": 100.0 * (traced_s - serial_s) / serial_s,
        "profile.overhead_pct": overhead_pct("profile"),
        "invariants.overhead_pct": overhead_pct("check"),
    }


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pool_jobs() -> int:
    """``--jobs`` for pooled invocations: the cores this process may use."""
    cpus = os.cpu_count() or 1
    try:
        return min(len(os.sched_getaffinity(0)), cpus)
    except AttributeError:
        return cpus


def run(args: argparse.Namespace) -> dict:
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"no repro source tree at {SRC}")
    jobs = pool_jobs()
    scratch_root = ROOT / ".perfbench"
    scratch_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=scratch_root))
    try:
        runner = Runner(work, time.monotonic() + DEADLINE_S)
        check = OutputCheck(load_reference(args.workload, args.seed))
        bench = Bench(args.workload, args.seed, runner, check)
        info = bench.environment(jobs)
        info["reference"] = "pinned" if check.pinned else "self-consistency"
        print("# environment " + json.dumps(info))
        if args.trace:
            values = bench.traced(jobs)
            units = LAYER_UNITS
        else:
            samples = bench.end_to_end(args.seconds, jobs)
            for name, series in samples.items():
                print(f"# {name} n={len(series)} samples={series}")
            values = {
                name: statistics.median(v) for name, v in samples.items() if v
            }
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = check.failed == 0 and values.keys() == units.keys()
    return {
        "correct": correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
            if name in values
        },
    }


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    # Children run in sessions of their own; turning SIGTERM into an
    # exception lets Runner.invoke kill and reap the running one.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        result = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
