"""Run one ``repro`` CLI invocation with spans and counters around each layer.

Usage (from the root of a checkout, with ``src`` on ``PYTHONPATH`` and
``REPRO_PROFILE=1`` so every tenant carries its ``PhaseTimer``)::

    python3 perfbench/traced.py TRACE.json -- figure3 --quick --jobs 1

The program's own stdout is left untouched, so it can be checked like any
other invocation.  Nothing under ``src/`` changes: this script replaces
public entry points of each layer with wrappers before calling
``repro.cli.main``.

* Spans (name, parent, start, end) are recorded only at the invocation,
  run, host-epoch and policy-interval boundaries; self times are derived
  from them afterwards.
* Per-call work (cache reads, table builds, the per-page actuators that
  run over a million times on a policy grid) goes into count and time
  counters, not spans.
* Each tenant's ``PhaseTimer`` and its ``ActionExecutor`` counters and
  totals are read when the tenant leaves the host.

Everything is written to TRACE.json once, when the invocation ends.
"""

from __future__ import annotations

import json
import sys
import time
from typing import Any, Callable, Dict, List

perf = time.perf_counter


class Tracer:
    """In-memory spans and counters for one invocation."""

    def __init__(self) -> None:
        self.t0 = perf()
        #: ``[name, parent_index, start, end]``; start/end from ``t0``.
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: name -> ``[calls, seconds, top_calls, top_seconds]`` where
        #: "top" means made directly inside a policy interval.
        self.counters: Dict[str, list] = {}
        self._depth = 0
        self._in_interval = False
        self.engine_phase_s: Dict[str, float] = {}
        self.tenant: Dict[str, int] = {
            "epochs": 0,
            "decisions": 0,
            "applied": 0,
            "splits": 0,
            "bytes_migrated": 0,
            "oom_killed": 0,
        }
        self.cache_hits = 0
        self.cache_bytes = 0

    def span(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call records one span."""
        spans, stack = self.spans, self._stack
        interval = name == "interval"

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if interval:
                self._in_interval = True
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf()
                if interval:
                    self._in_interval = False
                stack.pop()
                spans[index] = [name, parent, start - self.t0, end - self.t0]

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """Wrap ``fn`` so each call adds to a count and time counter."""
        stat = self.counters.setdefault(name, [0, 0.0, 0, 0.0])

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            depth = self._depth
            top = depth == 0 and self._in_interval
            self._depth = depth + 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                self._depth = depth
                stat[0] += 1
                stat[1] += elapsed
                if top:
                    stat[2] += 1
                    stat[3] += elapsed

        return wrapper

    def harvest(self, tenant: Any) -> None:
        """Fold a departing tenant's profiler and executor into the totals.

        A tenant whose policy has no daemon interval (``linux-4k``,
        ``thp``) still laps an empty ``policy`` phase each epoch; that
        lap is charged to ``other``, so the policy phase counts only
        tenants that have a policy loop.
        """
        prof = tenant.profiler
        if prof is not None:
            has_loop = tenant.policy.interval_s is not None
            for phase, seconds in prof.phase_s.items():
                if phase == "policy" and not has_loop:
                    phase = "other"
                self.engine_phase_s[phase] = (
                    self.engine_phase_s.get(phase, 0.0) + seconds
                )
            self.tenant["epochs"] += prof.n_epochs
        executor = tenant.executor
        totals = executor.totals
        self.tenant["decisions"] += executor.decisions_seen
        self.tenant["applied"] += executor.decisions_applied
        self.tenant["splits"] += totals.splits_2m + totals.splits_1g
        self.tenant["bytes_migrated"] += totals.bytes_migrated

    def dump(self, import_s: float) -> Dict[str, Any]:
        """Everything recorded, as one JSON-ready object."""
        return {
            "import_s": import_s,
            "spans": self.spans,
            "counters": self.counters,
            "engine_phase_s": self.engine_phase_s,
            "tenant": self.tenant,
            "cache_hits": self.cache_hits,
            "cache_bytes": self.cache_bytes,
        }


def install(tracer: Tracer) -> None:
    """Replace each layer's public entry points with traced wrappers."""
    from repro.core import metrics, reactive
    from repro.experiments import cache, parallel, runner, scenario_runner
    from repro.sim import engine, host
    from repro.vm import address_space
    from repro.workloads import streambank

    # Spans: run, scenario, grid, host epoch, policy interval.
    runner.execute_run = tracer.span("run", runner.execute_run)
    scenario_runner.execute_scenario = tracer.span(
        "scenario", scenario_runner.execute_scenario
    )
    parallel.GridRunner.run = tracer.span("grid", parallel.GridRunner.run)
    engine.ActionExecutor.run_interval = tracer.span(
        "interval", engine.ActionExecutor.run_interval
    )
    step_epoch = tracer.span("epoch", host.Host.step_epoch)

    def traced_step_epoch(self: Any) -> Any:
        finished, killed = step_epoch(self)
        for tenant in finished + killed:
            tracer.harvest(tenant)
        tracer.tenant["oom_killed"] += len(killed)
        return finished, killed

    evict = host.Host.evict

    def traced_evict(self: Any, tenant: Any) -> Any:
        tracer.harvest(tenant)
        return evict(self, tenant)

    host.Host.step_epoch = traced_step_epoch
    host.Host.evict = traced_evict

    # Counters.
    host.Host.admit = tracer.counted("admit", host.Host.admit)
    host.Host.apply_pressure = tracer.counted(
        "apply_pressure", host.Host.apply_pressure
    )
    from_samples = metrics.PageSampleTable.__dict__["from_samples"].__func__
    metrics.PageSampleTable.from_samples = classmethod(
        tracer.counted("build_table", from_samples)
    )
    reactive.estimate_lar_after_carrefour = tracer.counted(
        "estimate_lar", reactive.estimate_lar_after_carrefour
    )
    space = address_space.AddressSpace
    for name in (
        "migrate_backing",
        "backing_is_live",
        "migrate_granules",
        "replicate_backing",
    ):
        setattr(space, name, tracer.counted(name, getattr(space, name)))
    split = tracer.counted("split_backing_page", address_space.split_backing_page)
    address_space.split_backing_page = split
    engine.split_backing_page = split
    engine.get_stream_bank = tracer.counted("get_bank", engine.get_stream_bank)
    streambank.StreamBank.epoch_arrays = tracer.counted(
        "epoch_arrays", streambank.StreamBank.epoch_arrays
    )

    get = tracer.counted("cache_get", cache.ResultCache.get)
    put = tracer.counted("cache_put", cache.ResultCache.put)

    def traced_get(self: Any, key: str, *args: Any, **kwargs: Any) -> Any:
        result = get(self, key, *args, **kwargs)
        if result is not None:
            tracer.cache_hits += 1
        return result

    def traced_put(self: Any, key: str, result: Any) -> None:
        put(self, key, result)
        try:
            tracer.cache_bytes += self.path_for(key).stat().st_size
        except OSError:
            pass

    cache.ResultCache.get = traced_get
    cache.ResultCache.put = traced_put


def main(argv: List[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced.py TRACE.json -- <repro args>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    start = perf()
    import repro.cli

    import_s = perf() - start
    tracer = Tracer()
    install(tracer)
    code = tracer.span("invocation", repro.cli.main)(cli_args)
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump(tracer.dump(import_s), fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
