"""One run's cache key, computed on its own: the oracle for
:func:`repro.experiments.runner.fingerprints`.

``fingerprints`` encodes a grid's config once and keys every spec of the
grid with :func:`repro.experiments.cache.encoded_run_fingerprint`.  This
function encodes the config for the one run it keys, so a test that
compares the two checks the shared encoding against a fresh one.
"""

from __future__ import annotations

from typing import Any, Tuple

from repro.experiments.cache import encoded_run_fingerprint, key_form
from repro.sim.config import SimConfig


def run_fingerprint(
    workload: str,
    machine: str,
    policy: str,
    backing_1g: bool,
    config: SimConfig,
    seed: int,
    params: Tuple[Tuple[str, Any], ...] = (),
) -> str:
    """SHA-256 hex key for one run: every :class:`SimConfig` field, the
    nested hardware cost models and the package version stamp, plus
    policy ``params`` when there are any."""
    return encoded_run_fingerprint(
        workload,
        machine,
        policy,
        backing_1g,
        key_form(config),
        seed,
        params=params,
    )
