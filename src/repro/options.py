"""Runtime options: every ``REPRO_*`` environment variable, parsed in one place.

Eight variables tune how runs execute; none changes what a run
computes:

======================  =========================================  ==============================
variable                meaning                                    unset
======================  =========================================  ==============================
``REPRO_JOBS``          worker processes for a run grid            ``cpu_count - 1``
``REPRO_CACHE``         persistent result cache on/off             on
``REPRO_CACHE_DIR``     persistent result cache directory          ``~/.cache/repro``
``REPRO_STREAM_CACHE``  stream-bank block store directory          memory only
``REPRO_CHECK``         runtime invariant checker on/off           ``SimConfig.check_invariants``
``REPRO_PROFILE``       per-phase profiler on/off                  ``SimConfig.profile``
``REPRO_TRACE``         decision trace on/off                      ``SimConfig.trace``
``REPRO_TRACE_FILE``    JSONL file every traced run appends to     none
======================  =========================================  ==============================

On/off variables accept one vocabulary, case-insensitive: ``1``,
``true``, ``on``, ``yes`` and ``0``, ``false``, ``off``, ``no``.
``REPRO_JOBS`` must be an integer.  Anything else raises
:class:`~repro.errors.ConfigurationError` naming the variable and the
accepted values; the CLI prints it as one ``error:`` line and exits 2.

Options are read from ``os.environ`` where a run or a grid starts and
never cached at import, so a process may change them between runs.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Mapping, Optional

from repro.errors import ConfigurationError

JOBS_ENV = "REPRO_JOBS"
CACHE_ENABLE_ENV = "REPRO_CACHE"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
STREAM_CACHE_ENV = "REPRO_STREAM_CACHE"
CHECK_ENV = "REPRO_CHECK"
PROFILE_ENV = "REPRO_PROFILE"
TRACE_ENV = "REPRO_TRACE"
TRACE_FILE_ENV = "REPRO_TRACE_FILE"

TRUE_VALUES = ("1", "true", "on", "yes")
FALSE_VALUES = ("0", "false", "off", "no")


def _text(environ: Mapping[str, str], name: str) -> Optional[str]:
    """The variable's stripped value; unset and empty both read as ``None``."""
    value = environ.get(name, "").strip()
    return value or None


def _switch(environ: Mapping[str, str], name: str) -> Optional[bool]:
    value = _text(environ, name)
    if value is None:
        return None
    if value.lower() in TRUE_VALUES:
        return True
    if value.lower() in FALSE_VALUES:
        return False
    accepted = ", ".join(TRUE_VALUES + FALSE_VALUES)
    raise ConfigurationError(
        f"{name}={value!r} is not on/off; use one of {accepted}"
    )


def _integer(environ: Mapping[str, str], name: str) -> Optional[int]:
    value = _text(environ, name)
    if value is None:
        return None
    try:
        return int(value)
    except ValueError:
        raise ConfigurationError(
            f"{name}={value!r} is not an integer; use a count such as 4"
        ) from None


@dataclass(frozen=True)
class RuntimeOptions:
    """The parsed ``REPRO_*`` variables (see the module docstring).

    ``None`` means unset: the caller's default applies, and for the
    three on/off switches of a run that default is the config's flag.
    """

    jobs: Optional[int] = None
    cache: bool = True
    cache_dir: Optional[str] = None
    stream_cache: Optional[str] = None
    check: Optional[bool] = None
    profile: Optional[bool] = None
    trace: Optional[bool] = None
    trace_file: Optional[str] = None

    @classmethod
    def from_env(
        cls, environ: Optional[Mapping[str, str]] = None
    ) -> "RuntimeOptions":
        """Parse and validate every variable of ``environ`` (default
        ``os.environ``)."""
        env = os.environ if environ is None else environ
        return cls(
            jobs=_integer(env, JOBS_ENV),
            cache=_switch(env, CACHE_ENABLE_ENV) is not False,
            cache_dir=_text(env, CACHE_DIR_ENV),
            stream_cache=_text(env, STREAM_CACHE_ENV),
            check=_switch(env, CHECK_ENV),
            profile=_switch(env, PROFILE_ENV),
            trace=_switch(env, TRACE_ENV),
            trace_file=_text(env, TRACE_FILE_ENV),
        )
