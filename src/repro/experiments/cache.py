"""Persistent on-disk cache for simulation results.

Simulations are deterministic functions of (workload, machine, policy
and its parameters, backing, seed, complete
:class:`~repro.sim.config.SimConfig`), so their results can be reused
across processes and sessions.  Entries are pickled
:class:`~repro.sim.results.SimulationResult` objects stored under
``~/.cache/repro`` (override with ``REPRO_CACHE_DIR``), keyed by a
SHA-256 fingerprint of the *full* run identity plus a package version
stamp — bumping :data:`repro.__version__` invalidates every entry, so
model changes can never resurrect stale numbers.

Writes are atomic (tmp file + :func:`os.replace`) so a crashed or
concurrent run can never leave a torn entry; unreadable entries are
treated as misses and deleted, never raised.

Set ``REPRO_CACHE=0`` (or ``off``/``false``/``no``, see
:mod:`repro.options`) to disable the persistent layer entirely; the
in-process memo in :mod:`repro.experiments.runner` is unaffected.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import logging
import os
import pathlib
import pickle
import tempfile
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

logger = logging.getLogger(__name__)

import numpy as np

from repro.options import RuntimeOptions
from repro.sim.config import SimConfig
from repro.sim.results import SimulationResult


def version_stamp() -> str:
    """The package version folded into every cache key.

    Imported lazily so this module does not cycle with ``repro``'s
    package ``__init__`` (which imports the runner, which imports us).
    """
    from repro import __version__

    return __version__


def cache_enabled() -> bool:
    """Whether the persistent layer is enabled (``REPRO_CACHE`` env)."""
    return RuntimeOptions.from_env().cache


def cache_root() -> pathlib.Path:
    """The cache directory (``REPRO_CACHE_DIR`` or ``~/.cache/repro``)."""
    override = RuntimeOptions.from_env().cache_dir
    if override is not None:
        return pathlib.Path(override).expanduser()
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = pathlib.Path(xdg).expanduser() if xdg else pathlib.Path.home() / ".cache"
    return base / "repro"


def _canonical(obj: object) -> object:
    """Reduce a value to primitives with a stable, unambiguous encoding.

    Dataclasses may name fields that cannot influence results (e.g.
    ``SimConfig.check_invariants``) in a ``_CACHE_KEY_EXCLUDE`` class
    attribute; those are left out of the encoding so toggling them
    neither misses the cache nor resurrects different numbers.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        excluded = getattr(type(obj), "_CACHE_KEY_EXCLUDE", frozenset())
        fields = {
            f.name: _canonical(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
            if f.name not in excluded
        }
        return {"__class__": type(obj).__name__, **fields}
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if isinstance(obj, np.ndarray):
        return [obj.dtype.str, obj.shape, obj.tolist()]
    if isinstance(obj, (np.integer, np.floating, np.bool_)):
        return obj.item()
    if isinstance(obj, dict):
        return {repr(k): _canonical(v) for k, v in sorted(obj.items(), key=repr)}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def key_form(value: object) -> object:
    """``value`` as a cache key holds it.

    A key canonicalizes each structured field and then the identity
    dict holding the fields, so a field is canonicalized twice (which
    re-quotes its dict keys); keeping both passes keeps every key.
    Encoding the config is most of what a key costs, so the keys of a
    grid share one encoding
    (:meth:`repro.experiments.runner.RunSettings.fingerprints`).
    """
    return _canonical(_canonical(value))


def _digest(identity: Dict[str, object]) -> str:
    """The SHA-256 hex key of an identity whose values are in key form.

    Identity keys are identifiers, so ordering the items by quoted key
    orders them as their ``(key, value)`` reprs, the order every
    existing key was hashed in.
    """
    text = repr({repr(k): identity[k] for k in sorted(identity, key=repr)})
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def run_fingerprint(
    workload: str,
    machine: str,
    policy: str,
    backing_1g: bool,
    config: SimConfig,
    seed: int,
    stamp: Optional[str] = None,
    params: Tuple[Tuple[str, Any], ...] = (),
) -> str:
    """SHA-256 hex key for one run, covering the *complete* config.

    Every :class:`SimConfig` field participates — including
    ``max_epochs``, ``khugepaged_batch``, ``ibs_cost_cycles`` and
    ``track_access_stats``, which the old tuple key omitted — plus the
    nested hardware cost models and a package version stamp.  Policy
    ``params`` join the identity only when there are any, so a run
    without them keeps the key it always had.
    """
    return encoded_run_fingerprint(
        workload,
        machine,
        policy,
        backing_1g,
        key_form(config),
        seed,
        stamp=stamp,
        params=params,
    )


def encoded_run_fingerprint(
    workload: str,
    machine: str,
    policy: str,
    backing_1g: bool,
    encoded_config: object,
    seed: int,
    stamp: Optional[str] = None,
    params: Tuple[Tuple[str, Any], ...] = (),
) -> str:
    """:func:`run_fingerprint`, given the config in :func:`key_form`."""
    identity = {
        "stamp": stamp if stamp is not None else version_stamp(),
        "workload": workload,
        "machine": machine,
        "policy": policy,
        "backing_1g": bool(backing_1g),
        "seed": int(seed),
        "config": encoded_config,
    }
    if params:
        identity["params"] = key_form(params)
    return _digest(identity)


def scenario_fingerprint(
    scenario: object,
    config: SimConfig,
    stamp: Optional[str] = None,
) -> str:
    """SHA-256 hex key for one multi-tenant scenario run.

    Same contract as :func:`run_fingerprint` but keyed on the complete
    :class:`~repro.scenarios.config.ScenarioConfig` (any dataclass
    canonicalises) plus the base :class:`SimConfig` every tenant's
    per-tenant config derives from.  The ``kind`` marker keeps scenario
    keys disjoint from single-run keys even under identical field
    values.
    """
    return _digest(
        {
            "stamp": stamp if stamp is not None else version_stamp(),
            "kind": "scenario",
            "scenario": key_form(scenario),
            "config": key_form(config),
        }
    )


@dataclass(frozen=True)
class CacheStats:
    """Summary of the persistent cache contents."""

    root: str
    n_entries: int
    total_bytes: int
    enabled: bool

    def describe(self) -> str:
        """Human-readable one-paragraph summary."""
        from repro._util import human_bytes

        state = "enabled" if self.enabled else "disabled (REPRO_CACHE)"
        return (
            f"cache root: {self.root} [{state}]\n"
            f"entries:    {self.n_entries}\n"
            f"size:       {human_bytes(self.total_bytes)}"
        )


class ResultCache:
    """Pickle-per-entry result store with atomic writes.

    One file per fingerprint: ``<root>/<hex>.pkl``.  The class never
    raises on a bad entry — corruption, version skew in the pickle
    stream, or a vanished file all read as a miss (and the offending
    file is removed so it cannot mask future problems).
    """

    SUFFIX = ".pkl"

    def __init__(self, root: Optional[pathlib.Path] = None) -> None:
        self.root = pathlib.Path(root) if root is not None else cache_root()

    @classmethod
    def default(cls) -> "ResultCache":
        """The cache at the environment-selected location."""
        return cls()

    def path_for(self, key: str) -> pathlib.Path:
        """Entry path for a fingerprint key."""
        return self.root / f"{key}{self.SUFFIX}"

    def get(
        self, key: str, expect: type = SimulationResult
    ) -> Optional[SimulationResult]:
        """Load a cached result, or ``None`` on miss/corruption.

        ``expect`` is the result type the caller will unpickle — the
        scenario runner stores :class:`ScenarioResult` objects in the
        same store, and a type mismatch (a fingerprint collision or a
        stale entry from another caller) must read as a miss, never as
        a wrongly-typed hit.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                result = pickle.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError, KeyError, pickle.UnpicklingError,
                EOFError, AttributeError, ImportError, IndexError) as exc:
            # Torn write from an old crash, disk corruption, or an
            # incompatible pickle stream: drop the entry and re-run.
            logger.debug("dropping unreadable cache entry %s: %r", path, exc)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        if not isinstance(result, expect):
            try:
                path.unlink()
            except OSError:
                pass
            return None
        return result

    def put(self, key: str, result: SimulationResult) -> None:
        """Store a result atomically; silently skips on I/O failure."""
        path = self.path_for(key)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=str(self.root), prefix=".tmp-", suffix=self.SUFFIX
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
                os.replace(tmp_name, path)
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
        except OSError:
            # A read-only or full cache dir must not break the run.
            pass

    def entries(self) -> list:
        """Paths of all live entries."""
        if not self.root.is_dir():
            return []
        return sorted(
            p
            for p in self.root.iterdir()
            if p.suffix == self.SUFFIX and not p.name.startswith(".tmp-")
        )

    def stats(self) -> CacheStats:
        """Entry count and total size of the store."""
        entries = self.entries()
        total = 0
        for path in entries:
            try:
                total += path.stat().st_size
            except OSError:
                pass
        return CacheStats(
            root=str(self.root),
            n_entries=len(entries),
            total_bytes=total,
            enabled=cache_enabled(),
        )

    def clear(self) -> int:
        """Delete every entry (and stale tmp files); returns the count."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for path in self.root.iterdir():
            if path.suffix != self.SUFFIX:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            if not path.name.startswith(".tmp-"):
                removed += 1
        return removed
