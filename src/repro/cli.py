"""Command-line interface: regenerate paper artifacts or run one benchmark.

Examples::

    repro list
    repro figure1 --quick --jobs 4
    repro table2 --scale 0.5
    repro run CG.D --machine B --policy carrefour-lp --quick
    repro policies
    repro trace SSCA.20 --policy carrefour-2m+replication --quick
    repro cache stats
    repro cache clear
    repro lint src/repro --format json
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys
from dataclasses import replace
from typing import List, Optional

from repro.errors import ConfigurationError, UnknownNameError
from repro.experiments.cache import ResultCache
from repro.experiments.experiments import EXPERIMENTS, run_experiment
from repro.experiments.runner import RunSettings, run_benchmark
from repro.options import CACHE_ENABLE_ENV, JOBS_ENV
from repro.sim.config import SimConfig
from repro.workloads.registry import available_workloads


def _settings_from_args(args: argparse.Namespace) -> RunSettings:
    if args.quick:
        settings = RunSettings.quick(seed=args.seed)
    else:
        settings = RunSettings(config=SimConfig(seed=args.seed), seed=args.seed)
    if args.scale is not None:
        settings = RunSettings(
            config=replace(settings.config, scale=args.scale), seed=args.seed
        )
    return settings


def _check_output_path(path: Optional[str], flag: str) -> None:
    """Reject, before simulating, an output path that is a directory or
    lies in a missing one.

    Either would otherwise surface as a traceback after the whole run.
    """
    if path is None:
        return
    target = pathlib.Path(path)
    if target.is_dir():
        raise ConfigurationError(f"{flag} {path} is a directory, not a file")
    if not target.parent.is_dir():
        raise ConfigurationError(
            f"{flag} {path}: directory {target.parent} does not exist"
        )


def _apply_execution_flags(args: argparse.Namespace) -> None:
    """Propagate --jobs/--fresh to the runner layer via environment.

    The environment is the natural carrier: it reaches the in-process
    parallel dispatcher and every pool worker alike.  ``--jobs`` below
    1 is a usage error, like the same value in ``REPRO_JOBS``.
    """
    jobs = getattr(args, "jobs", None)
    if jobs is not None:
        if jobs < 1:
            raise ConfigurationError(
                f"--jobs {jobs} is not a count of at least 1;"
                " use 1 for serial runs"
            )
        os.environ[JOBS_ENV] = str(jobs)
    if getattr(args, "fresh", False):
        os.environ[CACHE_ENABLE_ENV] = "0"


def _add_run_options(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--quick", action="store_true", help="reduced scale")
    cmd.add_argument("--scale", type=float, default=None)
    cmd.add_argument("--seed", type=int, default=0)
    cmd.add_argument(
        "--jobs",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for independent runs"
        " (default: REPRO_JOBS or cpu_count; 1 = serial)",
    )
    cmd.add_argument(
        "--fresh",
        action="store_true",
        help="ignore the persistent result cache (recompute everything)",
    )


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Large Pages May Be Harmful on NUMA Systems'"
            " (USENIX ATC'14)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments and benchmarks")

    cache_cmd = sub.add_parser("cache", help="inspect the persistent result cache")
    cache_cmd.add_argument(
        "action", choices=["stats", "clear"], help="show stats or delete entries"
    )

    lint_cmd = sub.add_parser(
        "lint",
        help="run the determinism linter (R001-R005; --deep adds"
        " R101, R104, R110, R112 and R113)",
    )
    lint_cmd.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed"
        " repro package source)",
    )
    lint_cmd.add_argument(
        "--format",
        dest="lint_format",
        choices=["text", "json"],
        default="text",
        help="output format (json for CI consumption)",
    )
    lint_cmd.add_argument(
        "--deep",
        action="store_true",
        help="also run the whole-program rules R101 (result-neutral"
        " purity), R104 (randomness or wall-clock reachable from a sim"
        " entry point), R110 (decider purity), R112 (accounting"
        " completeness) and R113 (conflict domains) over the call graph",
    )
    lint_cmd.add_argument(
        "--explain",
        default=None,
        metavar="RULE",
        help="print a deep rule's rationale plus, for R110, R112 and"
        " R113, its inferred model: the decision kernel (decisions,"
        " handlers, policy roots) (implies --deep)",
    )
    lint_cmd.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="JSON baseline of known findings; exit 0 unless *new*"
        " findings appear",
    )
    lint_cmd.add_argument(
        "--baseline-update",
        action="store_true",
        help="regenerate the --baseline file from the current findings"
        " and exit 0",
    )

    for name in EXPERIMENTS:
        exp = sub.add_parser(name, help=f"regenerate {name}")
        _add_run_options(exp)

    run_cmd = sub.add_parser("run", help="run one benchmark/policy combo")
    run_cmd.add_argument("workload")
    run_cmd.add_argument("--machine", default="A", choices=["A", "B"])
    run_cmd.add_argument("--policy", default="thp")
    run_cmd.add_argument("--backing-1g", action="store_true")
    _add_run_options(run_cmd)

    prof_cmd = sub.add_parser(
        "profile",
        help="run one benchmark uncached with the per-phase engine profiler",
    )
    prof_cmd.add_argument("workload")
    prof_cmd.add_argument("--machine", default="A", choices=["A", "B"])
    prof_cmd.add_argument("--policy", default="thp")
    prof_cmd.add_argument("--backing-1g", action="store_true")
    prof_cmd.add_argument("--quick", action="store_true", help="reduced scale")
    prof_cmd.add_argument("--scale", type=float, default=None)
    prof_cmd.add_argument("--seed", type=int, default=0)
    prof_cmd.add_argument(
        "--json",
        dest="json_path",
        default=None,
        metavar="PATH",
        help="also write the machine-readable profile to PATH",
    )

    sub.add_parser(
        "policies",
        help="list the policy registry with one-line descriptions",
    )

    scen_cmd = sub.add_parser(
        "scenario",
        help="run a multi-tenant colocation scenario on one shared host",
    )
    scen_cmd.add_argument(
        "--arrival",
        default="poisson",
        help="arrival generator (see repro.scenarios.registry;"
        " poisson / fixed-trace / closed-loop)",
    )
    scen_cmd.add_argument("--machine", default="B", choices=["A", "B"])
    scen_cmd.add_argument(
        "--workloads",
        default="SSCA.20",
        metavar="W1,W2,...",
        help="comma-separated workload pool (assigned round-robin)",
    )
    scen_cmd.add_argument(
        "--policies",
        default="thp",
        metavar="P1,P2,...",
        help="comma-separated policy pool (assigned round-robin)",
    )
    scen_cmd.add_argument(
        "--rate",
        type=float,
        default=0.05,
        help="expected arrivals per host epoch (poisson)",
    )
    scen_cmd.add_argument(
        "--max-tenants", type=int, default=4, help="total tenant budget"
    )
    scen_cmd.add_argument(
        "--target-active",
        type=int,
        default=2,
        help="tenants kept alive by the closed-loop generator",
    )
    scen_cmd.add_argument(
        "--tenant-epochs",
        type=int,
        default=None,
        help="per-tenant epoch cap (default: each workload's own length)",
    )
    scen_cmd.add_argument(
        "--trace",
        default=None,
        metavar="E:W:P,...",
        help="fixed-trace arrival schedule as epoch:workload:policy"
        " triples, e.g. 0:SSCA.20:carrefour-lp,4:Kmeans:thp"
        " (implies --arrival fixed-trace)",
    )
    scen_cmd.add_argument("--max-host-epochs", type=int, default=2000)
    scen_cmd.add_argument(
        "--pressure",
        type=float,
        default=0.0,
        help="fraction of each node's memory pinned before any tenant"
        " arrives, in [0, 1)",
    )
    scen_cmd.add_argument("--quick", action="store_true", help="reduced scale")
    scen_cmd.add_argument("--scale", type=float, default=None)
    scen_cmd.add_argument("--seed", type=int, default=0)
    scen_cmd.add_argument(
        "--fresh",
        action="store_true",
        help="ignore the persistent result cache (recompute everything)",
    )

    trace_cmd = sub.add_parser(
        "trace",
        help="run one benchmark uncached with the decision trace enabled",
    )
    trace_cmd.add_argument("workload")
    trace_cmd.add_argument("--machine", default="A", choices=["A", "B"])
    trace_cmd.add_argument("--policy", default="thp")
    trace_cmd.add_argument("--backing-1g", action="store_true")
    trace_cmd.add_argument("--quick", action="store_true", help="reduced scale")
    trace_cmd.add_argument("--scale", type=float, default=None)
    trace_cmd.add_argument("--seed", type=int, default=0)
    trace_cmd.add_argument(
        "--jsonl",
        dest="jsonl_path",
        default=None,
        metavar="PATH",
        help="also write the decision records as JSON lines to PATH",
    )
    return parser


def _lint_main(args: argparse.Namespace) -> int:
    """Run the determinism linter.

    Exit codes: 0 clean (or no findings beyond the baseline), 1 when
    reportable findings exist, 2 on usage errors (bad flags, malformed
    baseline), 3 when the baseline file is missing or was written by an
    unknown schema version (regenerate with --baseline-update).
    """
    import time

    from repro.analysis.baseline import (
        BaselineError,
        BaselineMissingError,
        BaselineSchemaError,
        filter_new,
        load_baseline,
        write_baseline,
    )
    from repro.analysis.linter import Finding, format_findings, lint_paths

    fmt = args.lint_format
    if args.baseline_update and not args.baseline:
        print("error: --baseline-update requires --baseline", file=sys.stderr)
        return 2
    explain = getattr(args, "explain", None)
    if explain is not None:
        from repro.analysis.deep import RULE_RATIONALE

        if explain not in RULE_RATIONALE:
            known = ", ".join(sorted(RULE_RATIONALE))
            print(
                f"error: unknown deep rule {explain!r} (known: {known})",
                file=sys.stderr,
            )
            return 2
        args.deep = True
    if args.paths:
        targets = [pathlib.Path(p) for p in args.paths]
    else:
        import repro

        targets = [pathlib.Path(repro.__file__).parent]
    findings = lint_paths(targets)
    if args.deep:
        from repro.analysis.callgraph import Project
        from repro.analysis.deep import deep_lint_project, explain_rule

        t0 = time.perf_counter()
        project = Project.from_paths(targets)
        findings = findings + deep_lint_project(project)
        findings.sort(key=Finding.sort_key)
        elapsed = time.perf_counter() - t0
        print(f"deep analysis: {elapsed:.2f}s", file=sys.stderr)
        if explain is not None:
            print(explain_rule(explain, project))
            for finding in findings:
                if finding.rule != explain:
                    continue
                print()
                print(finding.format_text())
                if finding.chain:
                    print(f"  entry chain: {' -> '.join(finding.chain)}")
    if args.baseline_update:
        write_baseline(pathlib.Path(args.baseline), findings)
        print(
            f"wrote baseline with {len(findings)} finding(s) to "
            f"{args.baseline}",
            file=sys.stderr,
        )
        return 0
    if args.baseline:
        try:
            baseline = load_baseline(pathlib.Path(args.baseline))
        except (BaselineMissingError, BaselineSchemaError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        findings = filter_new(findings, baseline)
    output = format_findings(findings, fmt)
    if output:
        print(output)
    elif fmt == "text":
        print("no findings")
    return 1 if findings else 0


def _profile_main(args: argparse.Namespace) -> int:
    """Run one benchmark with the per-phase profiler and report timings."""
    import json

    from repro.sim.profile import run_profiled

    _check_output_path(args.json_path, "--json")
    settings = _settings_from_args(args)
    result, timer = run_profiled(
        args.workload,
        args.machine,
        args.policy,
        settings,
        backing_1g=args.backing_1g,
    )
    print(result.describe())
    print(f"  simulated runtime={result.runtime_s:.3f}s")
    print(timer.render())
    if args.json_path:
        payload = {
            "run": f"{args.workload}@{args.machine}/{args.policy}",
            "scale": settings.config.scale,
            "seed": settings.seed,
            "simulated_runtime_s": result.runtime_s,
            "profile": timer.summary(),
        }
        pathlib.Path(args.json_path).write_text(
            json.dumps(payload, indent=2) + "\n"
        )
        print(f"wrote {args.json_path}")
    return 0


def _policies_main() -> int:
    """List the policy registry with its documented descriptions."""
    from repro.experiments.configs import POLICIES, policy_descriptions

    descriptions = policy_descriptions()
    width = max(len(name) for name in POLICIES)
    print("policies:")
    for name in POLICIES:
        print(f"  {name:<{width}}  {descriptions[name]}")
    print(
        "\ncompose with '+', e.g. carrefour-2m+replication"
        " (first member wins decision conflicts)"
    )
    return 0


def _trace_main(args: argparse.Namespace) -> int:
    """Run one benchmark with decision tracing and report the tally."""
    from repro.sim.trace import run_traced

    _check_output_path(args.jsonl_path, "--jsonl")
    settings = _settings_from_args(args)
    result, trace = run_traced(
        args.workload,
        args.machine,
        args.policy,
        settings,
        backing_1g=args.backing_1g,
    )
    print(result.describe())
    print(f"  simulated runtime={result.runtime_s:.3f}s")
    print(trace.render())
    if args.jsonl_path:
        trace.write_jsonl(args.jsonl_path)
        print(f"wrote {args.jsonl_path}")
    return 0


def _parse_trace(text: str) -> tuple:
    """``--trace`` as ``(epoch, workload, policy)`` triples.

    A malformed entry raises :class:`ConfigurationError` naming it.
    """
    trace = []
    for entry in text.split(","):
        fields = [field.strip() for field in entry.split(":")]
        if len(fields) != 3 or not fields[0].isdecimal() or not all(fields):
            raise ConfigurationError(
                f"--trace entry {entry!r} is not EPOCH:WORKLOAD:POLICY"
                " (e.g. 0:SSCA.20:carrefour-lp)"
            )
        trace.append((int(fields[0]), fields[1], fields[2]))
    return tuple(trace)


def _scenario_main(args: argparse.Namespace) -> int:
    """Run one colocation scenario and print its tenant timeline."""
    from repro.experiments.scenario_runner import run_scenario
    from repro.scenarios import ScenarioConfig

    settings = _settings_from_args(args)
    trace = ()
    arrival = args.arrival
    if args.trace:
        trace = _parse_trace(args.trace)
        arrival = "fixed-trace"
    scenario = ScenarioConfig(
        arrival=arrival,
        machine=args.machine,
        workloads=tuple(
            w.strip() for w in args.workloads.split(",") if w.strip()
        ),
        policies=tuple(
            p.strip() for p in args.policies.split(",") if p.strip()
        ),
        arrival_rate=args.rate,
        trace=trace,
        max_tenants=args.max_tenants,
        target_active=args.target_active,
        max_host_epochs=args.max_host_epochs,
        tenant_epochs=args.tenant_epochs,
        pressure=args.pressure,
        seed=args.seed,
    )
    result = run_scenario(
        scenario, settings.config, use_cache=not args.fresh
    )
    print(
        f"scenario {scenario.arrival} on {result.machine}: "
        f"{len(result.tenants)} tenant(s) over {result.host_epochs} host"
        f" epoch(s), pressure {scenario.pressure:.0%}"
        f" ({result.pressure_bytes >> 20} MiB pinned)"
    )
    for record in result.tenants:
        runtime = (
            f"{record.result.runtime_s:.3f}s"
            if record.result is not None
            else "-"
        )
        exit_epoch = record.exit_epoch if record.exit_epoch is not None else "-"
        print(
            f"  tenant {record.tenant_id}: {record.workload}/{record.policy}"
            f" epochs {record.arrival_epoch}..{exit_epoch}"
            f" [{record.status}] runtime={runtime}"
        )
    print(
        f"  completed={result.n_completed} oom-killed={result.n_killed}"
        f" truncated={len(result.by_status('truncated'))}"
    )
    return 0


def _cache_main(action: str) -> int:
    store = ResultCache.default()
    if action == "clear":
        removed = store.clear()
        print(f"removed {removed} cached result(s) from {store.root}")
        return 0
    print(store.stats().describe())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point.

    Bad input is a usage error: one line on stderr and exit code 2.
    That covers an unknown policy or workload name (the line names the
    closest known name), a malformed ``REPRO_*`` variable and any other
    inconsistent configuration, such as ``--scale 2``.  A reader that
    closes stdout early (``repro list | head -1``) ends the command
    with exit code 141, as SIGPIPE would, and nothing on stderr.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit; on the closed
        # pipe that would print an ignored-exception report.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except UnknownNameError as exc:
        print(f"error: {exc.summary}", file=sys.stderr)
        return 2
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args: argparse.Namespace) -> int:
    """Run the parsed command."""
    if args.command == "list":
        print("experiments:")
        for name in EXPERIMENTS:
            print(f"  {name}")
        print("benchmarks:")
        for name in available_workloads():
            print(f"  {name}")
        return 0

    if args.command == "cache":
        return _cache_main(args.action)

    if args.command == "lint":
        return _lint_main(args)

    if args.command == "profile":
        return _profile_main(args)

    if args.command == "policies":
        return _policies_main()

    if args.command == "trace":
        return _trace_main(args)

    if args.command == "scenario":
        return _scenario_main(args)

    _apply_execution_flags(args)

    if args.command == "run":
        settings = _settings_from_args(args)
        result = run_benchmark(
            args.workload,
            args.machine,
            args.policy,
            settings,
            backing_1g=args.backing_1g,
        )
        m = result.metrics()
        print(result.describe())
        print(
            f"  runtime={m.runtime_s:.3f}s fault={m.fault_time_total_s * 1e3:.0f}ms"
            f" (max {m.max_fault_pct:.1f}%) L2walk={m.pct_l2_walk:.1f}%"
        )
        if m.pamup_pct is not None:
            print(
                f"  PAMUP={m.pamup_pct:.1f}% NHP={m.n_hot_pages} PSP={m.psp_pct:.0f}%"
            )
        print(f"  pages: {m.final_page_counts}")
        return 0

    settings = _settings_from_args(args)
    report = run_experiment(args.command, settings)
    print(report.render())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
