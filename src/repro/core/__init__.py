"""The paper's contribution: Carrefour and its large-page extensions.

* :mod:`repro.core.metrics` — sample tables and metric helpers.
* :mod:`repro.core.carrefour` — the Carrefour placement engine
  (migrate single-node pages, interleave shared pages) with its global
  enable thresholds; at 2MB granularity this is Carrefour-2M.
* :mod:`repro.core.lar_estimator` — what-if LAR estimation from IBS
  samples, with and without splitting large pages.
* :mod:`repro.core.reactive` — the reactive component: split shared
  large pages when only splitting recovers locality; always split and
  interleave hot pages.
* :mod:`repro.core.conservative` — the conservative component:
  re-enable 2MB allocation/promotion when TLB or page-fault pressure
  warrants it.
* :mod:`repro.core.carrefour_lp` — Algorithm 1, composing all of the
  above into the Carrefour-LP policy (plus the reactive-only and
  conservative-only variants evaluated in Figure 4).
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(
    __name__,
    {
        "repro.core.metrics": ("PageSampleTable", "sample_lar"),
        "repro.core.carrefour": (
            "CarrefourConfig",
            "CarrefourEngine",
            "CarrefourPolicy",
        ),
        "repro.core.lar_estimator": (
            "LarEstimate",
            "estimate_lar_after_carrefour",
        ),
        "repro.core.conservative": (
            "ConservativeComponent",
            "ConservativeConfig",
        ),
        "repro.core.reactive": ("ReactiveComponent", "ReactiveConfig"),
        "repro.core.carrefour_lp": ("CarrefourLpPolicy",),
    },
)

__all__ = [
    "PageSampleTable",
    "sample_lar",
    "CarrefourConfig",
    "CarrefourEngine",
    "CarrefourPolicy",
    "LarEstimate",
    "estimate_lar_after_carrefour",
    "ConservativeComponent",
    "ConservativeConfig",
    "ReactiveComponent",
    "ReactiveConfig",
    "CarrefourLpPolicy",
]
