"""Simulation configuration."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class SimConfig:
    """Engine parameters.

    Every field is something a run computes from, so every field enters
    the run's cache key.  The cost models' calibration (the 0.25 s
    epoch, controller queueing, TLB, fault and migration costs) is fixed
    once where each model is defined, and the observers (phase timer,
    decision trace, invariant checker) change no result; neither is
    configured here (see :mod:`repro.options` for the observers).

    Attributes
    ----------
    stream_length:
        Number of sampled DRAM accesses generated per thread per epoch
        (the sample *represents* the workload's full DRAM intensity).
    scale:
        Workload scale factor in (0, 1]; shrinks footprints/epochs for
        quick runs.
    ibs_rate:
        IBS samples per represented DRAM access.
    seed:
        Root seed; all randomness derives deterministically from it.
    max_epochs:
        Safety cap on epochs regardless of the workload's request.
    """

    stream_length: int = 2048
    scale: float = 1.0
    ibs_rate: float = 1e-4
    seed: int = 0
    max_epochs: int = 10_000

    def __post_init__(self) -> None:
        if self.stream_length <= 0:
            raise ConfigurationError("stream_length must be positive")
        if not 0 < self.scale <= 1.0:
            raise ConfigurationError("scale must be in (0, 1]")
        if not 0 <= self.ibs_rate <= 1:
            raise ConfigurationError("ibs_rate must be in [0, 1]")
        if self.max_epochs <= 0:
            raise ConfigurationError("max_epochs must be positive")

    @classmethod
    def quick(cls, seed: int = 0) -> "SimConfig":
        """A reduced-cost preset for tests and smoke runs."""
        return cls(stream_length=768, scale=0.25, seed=seed, ibs_rate=2e-4)
