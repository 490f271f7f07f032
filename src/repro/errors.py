"""Exception hierarchy for the repro package."""

import difflib
from typing import Iterable, Sequence


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A machine, workload or policy was configured inconsistently."""


class AllocationError(ReproError):
    """The physical frame allocator could not satisfy a request."""


class MappingError(ReproError):
    """An address-space operation violated a mapping invariant."""


class SimulationError(ReproError):
    """The simulation engine reached an invalid state."""


class UnknownNameError(ReproError, KeyError):
    """A name that is not in a registry.

    :attr:`summary` names it and the closest known name (the one line
    the CLI prints); ``str()`` adds every known name.
    """

    def __init__(self, summary: str, known: Sequence[str] = ()) -> None:
        super().__init__(summary, tuple(known))
        self.summary = summary
        self.known = tuple(known)

    @classmethod
    def lookup_failed(cls, kind: str, name: str, known: Iterable[str]):
        """The error for ``name`` missing from the ``kind`` registry."""
        known = list(known)
        close = difflib.get_close_matches(name, known, n=1)
        hint = f" (did you mean {close[0]!r}?)" if close else ""
        return cls(f"unknown {kind} {name!r}{hint}", known)

    def __str__(self) -> str:
        if not self.known:
            return self.summary
        return f"{self.summary}; available: {list(self.known)}"


class UnknownWorkloadError(UnknownNameError):
    """A benchmark name was not found in the workload registry."""


class UnknownPolicyError(UnknownNameError):
    """A policy name was not found in the policy registry."""
