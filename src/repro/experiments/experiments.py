"""One driver per paper artifact (Figures 1-5, Tables 1-3, §4.2, §4.4).

Every driver is a generator, as a policy's ``decide()`` is: it yields
its grid of :class:`RunSpec` once, is sent the results of exactly that
grid, and returns a :class:`repro.experiments.reporting.Report` whose
rows mirror the paper's layout.  :func:`run_experiments` runs the union
of the drivers' grids through one :meth:`GridRunner.run` call.  Absolute
numbers are not expected to match the authors' hardware; the shape — who
wins, roughly by how much, which metric moves in which direction — is
the reproduction target (see ``EXPERIMENTS.md``).
"""

from __future__ import annotations

import importlib
from typing import Callable, Dict, Generator, Iterable, List, Mapping, Optional, Sequence

from repro.errors import ConfigurationError
from repro.experiments.parallel import GridRunner
from repro.experiments.reporting import Report
from repro.experiments.runner import RunSpec
from repro.sim.config import SimConfig
from repro.sim.results import SimulationResult
from repro.workloads.registry import AFFECTED_SET, FIGURE1_ORDER, UNAFFECTED_SET

MACHINES = ("A", "B")

#: What a driver is sent: the results of the grid it yielded.
Runs = Mapping[RunSpec, SimulationResult]
#: A running driver: yields its grid, is sent its runs, returns its report.
Artifact = Generator[List[RunSpec], Runs, Report]


def _fmt(v: float) -> str:
    return f"{v:+.1f}"


def _grid(
    workloads: Iterable[str],
    machines: Iterable[str],
    policies: Iterable[str],
    backing_1g: bool = False,
) -> List[RunSpec]:
    """Cross-product run grid for a figure/table batch."""
    return [
        RunSpec(wl, machine, policy, backing_1g)
        for wl in workloads
        for machine in machines
        for policy in policies
    ]


def figure1() -> Artifact:
    """Figure 1: THP performance improvement over Linux, both machines."""
    runs = yield _grid(FIGURE1_ORDER, MACHINES, ["thp", "linux-4k"])
    rows = []
    data: Dict[str, Dict[str, float]] = {m: {} for m in MACHINES}
    for wl in FIGURE1_ORDER:
        row = [wl]
        for machine in MACHINES:
            imp = runs[RunSpec(wl, machine, "thp")].improvement_over(
                runs[RunSpec(wl, machine, "linux-4k")]
            )
            data[machine][wl] = imp
            row.append(_fmt(imp))
        rows.append(row)
    return Report(
        experiment_id="figure1",
        title="THP improvement over default Linux (%, per machine)",
        headers=["benchmark", "machine A", "machine B"],
        rows=rows,
        data=data,
        notes=[
            "Paper: gains up to +109% (WC on B), losses down to -43% (CG.D on B);"
            " CG, UA and SPECjbb are hurt by THP."
        ],
    )


_TABLE1_CASES = [
    ("CG.D", "B"),
    ("UA.C", "B"),
    ("WC", "B"),
    ("SSCA.20", "A"),
    ("SPECjbb", "A"),
]


def table1() -> Artifact:
    """Table 1: detailed Linux-vs-THP profile of five applications."""
    runs = yield [
        RunSpec(wl, machine, policy)
        for wl, machine in _TABLE1_CASES
        for policy in ("linux-4k", "thp")
    ]
    rows = []
    data = {}
    for wl, machine in _TABLE1_CASES:
        linux = runs[RunSpec(wl, machine, "linux-4k")].metrics()
        thp = runs[RunSpec(wl, machine, "thp")].metrics()
        imp = thp.improvement_over(linux)
        rows.append(
            [
                f"{wl} ({machine})",
                _fmt(imp),
                f"{linux.fault_time_total_s * 1e3:.0f}ms ({linux.max_fault_pct:.1f}%)",
                f"{thp.fault_time_total_s * 1e3:.0f}ms ({thp.max_fault_pct:.1f}%)",
                f"{linux.pct_l2_walk:.0f}",
                f"{thp.pct_l2_walk:.0f}",
                f"{linux.lar_pct:.0f}",
                f"{thp.lar_pct:.0f}",
                f"{linux.imbalance_pct:.0f}",
                f"{thp.imbalance_pct:.0f}",
            ]
        )
        data[f"{wl}@{machine}"] = {"linux": linux, "thp": thp, "improvement": imp}
    return Report(
        experiment_id="table1",
        title="Detailed analysis (Linux vs THP)",
        headers=[
            "benchmark",
            "perf +%",
            "fault Linux",
            "fault THP",
            "L2walk% Linux",
            "L2walk% THP",
            "LAR Linux",
            "LAR THP",
            "imb Linux",
            "imb THP",
        ],
        rows=rows,
        data=data,
        notes=[
            "Paper: WC's fault time halves under THP; SSCA's walk-induced L2"
            " misses drop 15%->2%; CG.D's imbalance jumps 1%->59%; UA.C's LAR"
            " falls 88%->66%."
        ],
    )


def _policy_figure(
    experiment_id: str,
    title: str,
    workloads: List[str],
    policies: List[str],
    baseline: str,
    notes: List[str],
) -> Artifact:
    runs = yield _grid(workloads, MACHINES, list(policies) + [baseline])
    rows = []
    data: Dict[str, Dict[str, Dict[str, float]]] = {m: {} for m in MACHINES}
    for wl in workloads:
        row = [wl]
        for machine in MACHINES:
            base = runs[RunSpec(wl, machine, baseline)]
            per_policy = {}
            for policy in policies:
                imp = runs[RunSpec(wl, machine, policy)].improvement_over(base)
                per_policy[policy] = imp
                row.append(_fmt(imp))
            data[machine][wl] = per_policy
        rows.append(row)
    headers = ["benchmark"]
    for machine in MACHINES:
        headers.extend(f"{p} ({machine})" for p in policies)
    return Report(
        experiment_id=experiment_id,
        title=title,
        headers=headers,
        rows=rows,
        data=data,
        notes=notes,
    )


def figure2() -> Artifact:
    """Figure 2: Carrefour-2M vs THP on the NUMA-affected applications."""
    return _policy_figure(
        "figure2",
        "THP and Carrefour-2M improvement over Linux (%, affected apps)",
        AFFECTED_SET,
        ["thp", "carrefour-2m"],
        "linux-4k",
        [
            "Paper: Carrefour-2M fixes SPECjbb and SSCA but fails on CG.D"
            " (hot pages) and UA (false sharing)."
        ],
    )


def figure3() -> Artifact:
    """Figure 3: Carrefour-LP vs THP on the NUMA-affected applications."""
    return _policy_figure(
        "figure3",
        "THP and Carrefour-LP improvement over Linux (%, affected apps)",
        AFFECTED_SET,
        ["thp", "carrefour-lp"],
        "linux-4k",
        [
            "Paper: Carrefour-LP restores CG.D/UA.B/UA.C, improves SSCA and"
            " SPECjbb, and does not significantly hurt the rest."
        ],
    )


def figure4() -> Artifact:
    """Figure 4: component breakdown, improvement over Linux *with THP*."""
    return _policy_figure(
        "figure4",
        "Carrefour-2M / conservative / reactive / Carrefour-LP over THP (%)",
        AFFECTED_SET,
        ["carrefour-2m", "conservative-only", "reactive-only", "carrefour-lp"],
        "thp",
        [
            "Paper: enabling both components (Carrefour-LP) is always the best"
            " or close; conservative-only starts from 4KB pages and misses"
            " early THP benefit; reactive-only can mis-split (SSCA)."
        ],
    )


_TABLE2_WORKLOADS = ["SPECjbb", "CG.D", "UA.B"]
_TABLE2_POLICIES = ["linux-4k", "thp", "carrefour-2m"]


def table2() -> Artifact:
    """Table 2: PAMUP / NHP / PSP / imbalance / LAR on machine A."""
    runs = yield _grid(_TABLE2_WORKLOADS, ["A"], _TABLE2_POLICIES)
    rows = []
    data = {}
    for wl in _TABLE2_WORKLOADS:
        per_policy = {}
        for policy in _TABLE2_POLICIES:
            m = runs[RunSpec(wl, "A", policy)].metrics()
            per_policy[policy] = m
            rows.append(
                [
                    wl,
                    policy,
                    f"{m.pamup_pct:.1f}",
                    str(m.n_hot_pages),
                    f"{m.psp_pct:.0f}",
                    f"{m.imbalance_pct:.0f}",
                    f"{m.lar_pct:.0f}",
                ]
            )
        data[wl] = per_policy
    return Report(
        experiment_id="table2",
        title="Hot-page and sharing metrics, machine A",
        headers=["benchmark", "policy", "PAMUP%", "NHP", "PSP%", "imb%", "LAR%"],
        rows=rows,
        data=data,
        notes=[
            "Paper: CG.D gains 3 hot pages under THP (PAMUP 0%->8%) that"
            " Carrefour-2M cannot balance; UA.B's PSP explodes 16%->70%"
            " so Carrefour-2M interleaves and LAR stays low."
        ],
    )


_TABLE3_CASES = [("CG.D", "B"), ("UA.B", "A"), ("UA.C", "B")]
_TABLE3_POLICIES = ["linux-4k", "thp", "carrefour-2m", "carrefour-lp"]


def table3() -> Artifact:
    """Table 3: LAR and imbalance across the four policies."""
    runs = yield [
        RunSpec(wl, machine, policy)
        for wl, machine in _TABLE3_CASES
        for policy in _TABLE3_POLICIES
    ]
    rows = []
    data = {}
    for wl, machine in _TABLE3_CASES:
        lar_row = [f"{wl} ({machine})"]
        imb_row = [""]
        per_policy = {}
        for policy in _TABLE3_POLICIES:
            result = runs[RunSpec(wl, machine, policy)]
            # Steady-state profile: the paper's runs are long relative
            # to the daemon's convergence, so their whole-run numbers
            # are effectively steady-state.
            entry = {
                "lar": result.steady_lar(),
                "imbalance": result.steady_imbalance(),
            }
            per_policy[policy] = entry
            lar_row.append(f"LAR {entry['lar']:.0f}")
            imb_row.append(f"imb {entry['imbalance']:.0f}")
        rows.append(lar_row)
        rows.append(imb_row)
        data[f"{wl}@{machine}"] = per_policy
    return Report(
        experiment_id="table3",
        title="NUMA metrics under each policy (steady state)",
        headers=["benchmark"] + _TABLE3_POLICIES,
        rows=rows,
        data=data,
        notes=[
            "Paper: Carrefour-LP restores UA's LAR (~60% -> ~85%) by"
            " splitting and CG.D's balance (imb 59-69% -> 3%).",
            "Metrics are steady-state (first 30% of epochs skipped) to"
            " exclude the daemon's convergence transient.",
        ],
    )


def figure5() -> Artifact:
    """Figure 5: THP and Carrefour-LP on the unaffected applications."""
    return _policy_figure(
        "figure5",
        "THP and Carrefour-LP improvement over Linux (%, unaffected apps)",
        UNAFFECTED_SET,
        ["thp", "carrefour-lp"],
        "linux-4k",
        [
            "Paper: Carrefour-LP's overhead does not significantly hurt these"
            " apps; EP.C, SP.B and pca improve a lot because they had NUMA"
            " issues to begin with."
        ],
    )


def overhead() -> Artifact:
    """Section 4.2: Carrefour-LP overhead vs reactive / Carrefour-2M / Linux."""
    runs = yield _grid(
        FIGURE1_ORDER,
        MACHINES,
        ["carrefour-lp", "reactive-only", "carrefour-2m", "linux-4k"],
    )
    rows = []
    data: Dict[str, Dict[str, Dict[str, float]]] = {m: {} for m in MACHINES}
    for wl in FIGURE1_ORDER:
        row = [wl]
        for machine in MACHINES:
            lp = runs[RunSpec(wl, machine, "carrefour-lp")]
            entries = {}
            for other in ("reactive-only", "carrefour-2m", "linux-4k"):
                base = runs[RunSpec(wl, machine, other)]
                # Overhead: how much *slower* LP is than the alternative
                # (positive = LP costs time; negative = LP is faster).
                entries[other] = (
                    (lp.runtime_s / base.runtime_s) - 1.0
                ) * 100.0
            data[machine][wl] = entries
            row.extend(f"{entries[o]:+.1f}" for o in ("reactive-only", "carrefour-2m", "linux-4k"))
        rows.append(row)
    headers = ["benchmark"]
    for machine in MACHINES:
        headers.extend(
            f"vs {o} ({machine})" for o in ("reactive", "carr-2m", "linux-4k")
        )
    return Report(
        experiment_id="overhead",
        title="Carrefour-LP runtime overhead (%; positive = LP slower)",
        headers=headers,
        rows=rows,
        data=data,
        notes=[
            "Paper: overhead vs the reactive approach is 1-2% (3.2% worst);"
            " vs Carrefour-2M below 2% on average; vs Linux-4K below 3%"
            " except FT, IS and LU where 2MB-page migration costs show."
        ],
    )


_VERYLARGE_WORKLOADS = ["SSCA.20", "streamcluster"]


def verylarge() -> Artifact:
    """Section 4.4: 1GB pages on SSCA and streamcluster (machine B)."""
    runs = yield [
        spec
        for wl in _VERYLARGE_WORKLOADS
        for spec in (
            RunSpec(wl, "B", "linux-4k"),
            RunSpec(wl, "B", "thp"),
            RunSpec(wl, "B", "linux-4k", backing_1g=True),
            RunSpec(wl, "B", "carrefour-lp", backing_1g=True),
        )
    ]
    rows = []
    data = {}
    for wl in _VERYLARGE_WORKLOADS:
        base = runs[RunSpec(wl, "B", "linux-4k")]
        thp = runs[RunSpec(wl, "B", "thp")]
        huge1g = runs[RunSpec(wl, "B", "linux-4k", backing_1g=True)]
        lp1g = runs[RunSpec(wl, "B", "carrefour-lp", backing_1g=True)]
        stats1g = huge1g.hot_stats
        entries = {
            "thp": thp.improvement_over(base),
            "1g": huge1g.improvement_over(base),
            "lp-on-1g": lp1g.improvement_over(base),
            "slowdown-1g": huge1g.runtime_s / base.runtime_s,
        }
        data[wl] = entries
        rows.append(
            [
                wl,
                _fmt(entries["thp"]),
                _fmt(entries["1g"]),
                _fmt(entries["lp-on-1g"]),
                f"x{entries['slowdown-1g']:.2f}",
                f"{stats1g.n_hot_pages}",
                f"{stats1g.psp_pct:.0f}%",
            ]
        )
    return Report(
        experiment_id="verylarge",
        title="1GB pages on machine B (improvement over Linux-4K, %)",
        headers=[
            "benchmark",
            "thp(2M)",
            "1GB pages",
            "LP on 1GB",
            "1GB slowdown",
            "hot 1G pages",
            "PSP(1G)",
        ],
        rows=rows,
        data=data,
        notes=[
            "Paper: with 1GB pages SSCA degrades 34% and streamcluster ~4x;"
            " hot-page and false-sharing effects appear immediately and"
            " splitting (Carrefour-LP) is the only remedy."
        ],
    )


def _elsewhere(module: str, name: str) -> Callable[[], Artifact]:
    """Imported at its first run: a figure loads no extension or claim."""

    def driver() -> Artifact:
        return getattr(importlib.import_module(f"repro.experiments.{module}"), name)()

    return driver


EXPERIMENTS: Dict[str, Callable[[], Artifact]] = {
    "figure1": figure1,
    "table1": table1,
    "figure2": figure2,
    "table2": table2,
    "figure3": figure3,
    "figure4": figure4,
    "table3": table3,
    "figure5": figure5,
    "overhead": overhead,
    "verylarge": verylarge,
    # Extensions beyond the paper (see repro.experiments.extensions).
    "lwp": _elsewhere("extensions", "lwp"),
    "autonuma": _elsewhere("extensions", "autonuma"),
    "ablation-hot": _elsewhere("extensions", "ablation_hot_threshold"),
    "ablation-budget": _elsewhere("extensions", "ablation_migration_budget"),
    # Claim-by-claim validation (see repro.experiments.validation).
    "validate": _elsewhere("validation", "validate"),
}


def run_experiments(
    names: Sequence[str], config: Optional[SimConfig] = None
) -> Dict[str, Report]:
    """Run the named experiments over one grid; returns their reports.

    Each driver is primed for its grid, the union of the grids goes to
    one :meth:`GridRunner.run` call, and each driver is sent only its
    own grid's results, so a read it did not declare is a ``KeyError``.
    """
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        raise ConfigurationError(
            f"unknown experiment {unknown[0]!r}; available: {sorted(EXPERIMENTS)}"
        )
    drivers = {name: EXPERIMENTS[name]() for name in names}
    grids = {name: next(driver) for name, driver in drivers.items()}
    runs = GridRunner(config).run(spec for grid in grids.values() for spec in grid)
    reports = {}
    for name, driver in drivers.items():
        try:
            driver.send({spec: runs[spec] for spec in grids[name]})
        except StopIteration as done:
            reports[name] = done.value
    return reports


def run_experiment(name: str, config: Optional[SimConfig] = None) -> Report:
    """Run one named experiment and return its report."""
    return run_experiments([name], config)[name]
