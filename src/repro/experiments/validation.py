"""Claim-by-claim validation of the reproduction against the paper.

Every qualitative claim listed in
:data:`repro.experiments.paper_data.CLAIMS` has a check here that reads
the relevant runs and decides PASS/FAIL, reporting the measured values
next to the paper's.  The checks share one declared grid
(:data:`GRID`), executed by one :meth:`GridRunner.run` call; a check
reading a run outside it raises ``KeyError``.  ``repro.cli validate``
prints the result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.experiments import paper_data
from repro.experiments.parallel import GridRunner
from repro.experiments.reporting import Report
from repro.experiments.runner import RunSpec
from repro.sim.config import SimConfig
from repro.sim.results import SimulationResult

Runs = Mapping[RunSpec, SimulationResult]

#: Every run the claim checks read, grouped by stream bank.
GRID: List[RunSpec] = [
    RunSpec(workload, machine, policy)
    for workload, machine, policies in (
        ("WC", "B", ("linux-4k", "thp", "conservative-only")),
        ("CG.D", "B", ("linux-4k", "thp", "carrefour-2m", "carrefour-lp")),
        ("UA.C", "B", ("linux-4k", "thp")),
        (
            "SSCA.20", "A",
            ("linux-4k", "thp", "carrefour-2m", "reactive-only", "carrefour-lp"),
        ),
        ("SPECjbb", "A", ("linux-4k", "thp", "carrefour-2m")),
        ("UA.B", "A", ("linux-4k", "thp", "carrefour-2m", "carrefour-lp")),
        ("Kmeans", "A", ("linux-4k", "carrefour-lp")),
        ("BT.B", "A", ("linux-4k", "carrefour-lp")),
        ("MG.D", "A", ("linux-4k", "carrefour-lp")),
        ("pca", "B", ("linux-4k", "carrefour-lp")),
        ("streamcluster", "B", ("linux-4k",)),
        ("SSCA.20", "B", ("linux-4k",)),
    )
    for policy in policies
] + [
    RunSpec(workload, "B", "linux-4k", backing_1g=True)
    for workload in ("streamcluster", "SSCA.20")
]


@dataclass
class ClaimResult:
    """Outcome of one claim check."""

    claim_id: str
    passed: bool
    measured: str
    paper: Optional[str]
    statement: str


def _imp(runs: Runs, workload: str, machine: str, policy: str) -> float:
    base = runs[RunSpec(workload, machine, "linux-4k")]
    return runs[RunSpec(workload, machine, policy)].improvement_over(base)


def _metrics(runs: Runs, workload: str, machine: str, policy: str):
    return runs[RunSpec(workload, machine, policy)].metrics()


# ----------------------------------------------------------------------
# Individual claim checks.  Each returns (passed, measured_description).
# ----------------------------------------------------------------------

def _check_thp_not_universal(runs: Runs) -> Tuple[bool, str]:
    wins = _imp(runs, "WC", "B", "thp")
    loses = _imp(runs, "CG.D", "B", "thp")
    return wins > 20 and loses < -15, (
        f"WC@B {wins:+.1f}%, CG.D@B {loses:+.1f}%"
    )


def _check_cg_imbalance(runs: Runs) -> Tuple[bool, str]:
    base = _metrics(runs, "CG.D", "B", "linux-4k").imbalance_pct
    thp = _metrics(runs, "CG.D", "B", "thp").imbalance_pct
    return base < 10 and thp > 40, f"imbalance {base:.0f}% -> {thp:.0f}%"


def _check_ua_lar_drop(runs: Runs) -> Tuple[bool, str]:
    base = _metrics(runs, "UA.C", "B", "linux-4k").lar_pct
    thp = _metrics(runs, "UA.C", "B", "thp").lar_pct
    return thp < base - 15, f"LAR {base:.0f}% -> {thp:.0f}%"


def _check_wc_fault_bound(runs: Runs) -> Tuple[bool, str]:
    base = _metrics(runs, "WC", "B", "linux-4k")
    thp = _metrics(runs, "WC", "B", "thp")
    return (
        base.max_fault_pct > 20 and thp.fault_time_total_s < base.fault_time_total_s / 2,
        f"fault {base.fault_time_total_s*1e3:.0f}ms ({base.max_fault_pct:.0f}%)"
        f" -> {thp.fault_time_total_s*1e3:.0f}ms",
    )


def _check_ssca_tlb_bound(runs: Runs) -> Tuple[bool, str]:
    base = _metrics(runs, "SSCA.20", "A", "linux-4k").pct_l2_walk
    thp = _metrics(runs, "SSCA.20", "A", "thp").pct_l2_walk
    return base > 8 and thp < 2, f"L2-from-walks {base:.0f}% -> {thp:.0f}%"


def _check_specjbb_masked(runs: Runs) -> Tuple[bool, str]:
    base = _metrics(runs, "SPECjbb", "A", "linux-4k")
    thp = _metrics(runs, "SPECjbb", "A", "thp")
    imp = _imp(runs, "SPECjbb", "A", "thp")
    return (
        base.pct_l2_walk > 2
        and thp.imbalance_pct > base.imbalance_pct + 10
        and imp < 8,
        f"walks {base.pct_l2_walk:.0f}% -> {thp.pct_l2_walk:.0f}%, imbalance"
        f" {base.imbalance_pct:.0f}% -> {thp.imbalance_pct:.0f}%, perf {imp:+.1f}%",
    )


def _check_cg_hot_pages(runs: Runs) -> Tuple[bool, str]:
    base = _metrics(runs, "CG.D", "B", "linux-4k")
    thp = _metrics(runs, "CG.D", "B", "thp")
    return (
        base.n_hot_pages == 0 and 2 <= thp.n_hot_pages <= 4 and thp.pamup_pct > 5,
        f"NHP {base.n_hot_pages} -> {thp.n_hot_pages},"
        f" PAMUP {base.pamup_pct:.1f}% -> {thp.pamup_pct:.1f}%",
    )


def _check_ua_false_sharing(runs: Runs) -> Tuple[bool, str]:
    base = _metrics(runs, "UA.B", "A", "linux-4k").psp_pct
    thp = _metrics(runs, "UA.B", "A", "thp").psp_pct
    return thp > base + 30, f"PSP {base:.0f}% -> {thp:.0f}%"


def _check_carrefour2m_partial(runs: Runs) -> Tuple[bool, str]:
    jbb_thp = _metrics(runs, "SPECjbb", "A", "thp").imbalance_pct
    jbb_carr = _metrics(runs, "SPECjbb", "A", "carrefour-2m").imbalance_pct
    cg = _imp(runs, "CG.D", "B", "carrefour-2m")
    ua = _imp(runs, "UA.B", "A", "carrefour-2m")
    return (
        jbb_carr < jbb_thp - 8 and cg < -20 and ua < -5,
        f"SPECjbb imbalance {jbb_thp:.0f}% -> {jbb_carr:.0f}%;"
        f" CG.D@B {cg:+.1f}%, UA.B@A {ua:+.1f}% (unrecovered)",
    )


def _check_lp_restores(runs: Runs) -> Tuple[bool, str]:
    cg_thp = _imp(runs, "CG.D", "B", "thp")
    cg_lp = _imp(runs, "CG.D", "B", "carrefour-lp")
    cg_imb = _metrics(runs, "CG.D", "B", "carrefour-lp").imbalance_pct
    ua_lar_lp = _metrics(runs, "UA.B", "A", "carrefour-lp").lar_pct
    ua_lar_thp = _metrics(runs, "UA.B", "A", "thp").lar_pct
    return (
        cg_lp > cg_thp + 15 and cg_imb < 25 and ua_lar_lp > ua_lar_thp + 5,
        f"CG.D@B {cg_thp:+.1f}% -> {cg_lp:+.1f}% (imbalance {cg_imb:.0f}%);"
        f" UA.B LAR {ua_lar_thp:.0f}% -> {ua_lar_lp:.0f}%",
    )


def _check_conservative_too_late(runs: Runs) -> Tuple[bool, str]:
    thp = _imp(runs, "WC", "B", "thp")
    cons = _imp(runs, "WC", "B", "conservative-only")
    return cons < thp - 15, f"WC@B: THP {thp:+.1f}% vs conservative-only {cons:+.1f}%"


def _check_reactive_missplit(runs: Runs) -> Tuple[bool, str]:
    carr = _imp(runs, "SSCA.20", "A", "carrefour-2m")
    reactive = _imp(runs, "SSCA.20", "A", "reactive-only")
    lp = _imp(runs, "SSCA.20", "A", "carrefour-lp")
    return (
        reactive < carr - 5 and lp > reactive,
        f"SSCA@A: carrefour-2m {carr:+.1f}%, reactive-only {reactive:+.1f}%,"
        f" carrefour-lp {lp:+.1f}%",
    )


def _check_lp_harmless(runs: Runs) -> Tuple[bool, str]:
    neutral = {
        b: _imp(runs, b, "A", "carrefour-lp") for b in ("Kmeans", "BT.B", "MG.D")
    }
    pca = _imp(runs, "pca", "B", "carrefour-lp")
    worst = min(neutral.values())
    return (
        worst > -8 and pca > 40,
        f"worst neutral app {worst:+.1f}%; pca@B {pca:+.1f}%",
    )


def _check_verylarge(runs: Runs) -> Tuple[bool, str]:
    base = runs[RunSpec("streamcluster", "B", "linux-4k")]
    huge = runs[RunSpec("streamcluster", "B", "linux-4k", backing_1g=True)]
    ssca_1g = runs[RunSpec("SSCA.20", "B", "linux-4k", backing_1g=True)]
    ssca_base = runs[RunSpec("SSCA.20", "B", "linux-4k")]
    slowdown = huge.runtime_s / base.runtime_s
    ssca_drop = ssca_1g.improvement_over(ssca_base)
    return (
        slowdown > 1.5 and ssca_drop < -15,
        f"streamcluster x{slowdown:.2f}; SSCA {ssca_drop:+.1f}%",
    )


_CHECKS: Dict[str, Callable[[Runs], Tuple[bool, str]]] = {
    "thp-not-universal": _check_thp_not_universal,
    "cg-imbalance": _check_cg_imbalance,
    "ua-lar-drop": _check_ua_lar_drop,
    "wc-fault-bound": _check_wc_fault_bound,
    "ssca-tlb-bound": _check_ssca_tlb_bound,
    "specjbb-masked": _check_specjbb_masked,
    "cg-hot-pages": _check_cg_hot_pages,
    "ua-false-sharing": _check_ua_false_sharing,
    "carrefour2m-partial": _check_carrefour2m_partial,
    "lp-restores": _check_lp_restores,
    "conservative-too-late": _check_conservative_too_late,
    "reactive-missplit": _check_reactive_missplit,
    "lp-harmless": _check_lp_harmless,
    "verylarge-pervasive": _check_verylarge,
}


def validate_claims(config: Optional[SimConfig] = None) -> List[ClaimResult]:
    """Run every claim check; returns one result per claim."""
    runs = GridRunner(config).run(GRID)
    results = []
    for claim in paper_data.CLAIMS:
        check = _CHECKS[claim.claim_id]
        passed, measured = check(runs)
        results.append(
            ClaimResult(
                claim_id=claim.claim_id,
                passed=passed,
                measured=measured,
                paper=claim.paper_value,
                statement=claim.statement,
            )
        )
    return results


def validate(config: Optional[SimConfig] = None) -> Report:
    """Claim validation as a renderable report (CLI: ``repro validate``)."""
    results = validate_claims(config)
    rows = [
        [
            "PASS" if r.passed else "FAIL",
            r.claim_id,
            r.paper or "-",
            r.measured,
        ]
        for r in results
    ]
    n_pass = sum(r.passed for r in results)
    return Report(
        experiment_id="validate",
        title=f"Paper-claim validation: {n_pass}/{len(results)} claims hold",
        headers=["status", "claim", "paper", "measured"],
        rows=rows,
        data={r.claim_id: r for r in results},
        notes=[
            "Claims are qualitative shapes (directions, orderings, rough"
            " factors), not absolute matches to the authors' hardware."
        ],
    )
