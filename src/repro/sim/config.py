"""Simulation configuration and hardware model bundle."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.hardware.caches import CacheModel
from repro.hardware.interconnect import InterconnectModel
from repro.hardware.mem_controller import MemoryControllerModel
from repro.hardware.tlb import TlbSpec
from repro.vm.migration import MigrationCostModel
from repro.vm.page_fault import PageFaultModel


@dataclass(frozen=True)
class MachineModels:
    """The dynamic hardware/OS cost models used by the engine."""

    tlb: TlbSpec = field(default_factory=TlbSpec)
    cache: CacheModel = field(default_factory=CacheModel)
    controller: MemoryControllerModel = field(default_factory=MemoryControllerModel)
    interconnect: InterconnectModel = field(default_factory=InterconnectModel)
    page_fault: PageFaultModel = field(default_factory=PageFaultModel)
    migration: MigrationCostModel = field(default_factory=MigrationCostModel)


@dataclass(frozen=True)
class SimConfig:
    """Engine parameters.

    Every field is something a run computes from, so every field enters
    the run's cache key.  The observers (phase timer, decision trace,
    invariant checker) change no result and are not configured here;
    see :mod:`repro.options`.

    Attributes
    ----------
    epoch_s:
        Nominal simulated time per epoch at reference speed; workload
        cost profiles are calibrated against this.
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
    track_access_stats:
        Maintain the per-granule access tracker needed for PAMUP / NHP
        / PSP reporting.  The tracker takes 10 bytes per granule
        (16.1 MB for a quick IS.D run on machine B), and a run without
        it reports no hot-page statistics.
    """

    epoch_s: float = 0.25
    stream_length: int = 2048
    scale: float = 1.0
    ibs_rate: float = 1e-4
    ibs_cost_cycles: float = 2500.0
    seed: int = 0
    track_access_stats: bool = True
    models: MachineModels = field(default_factory=MachineModels)
    #: Safety cap on epochs regardless of the workload's request.
    max_epochs: int = 10_000
    #: khugepaged chunks scanned per epoch when promotion is enabled
    #: (collapse throughput is bounded, as in Linux).
    khugepaged_batch: int = 512

    def __post_init__(self) -> None:
        if self.epoch_s <= 0:
            raise ConfigurationError("epoch_s must be positive")
        if self.stream_length <= 0:
            raise ConfigurationError("stream_length must be positive")
        if not 0 < self.scale <= 1.0:
            raise ConfigurationError("scale must be in (0, 1]")
        if not 0 <= self.ibs_rate <= 1:
            raise ConfigurationError("ibs_rate must be in [0, 1]")
        if self.ibs_cost_cycles <= 0:
            raise ConfigurationError("ibs_cost_cycles must be positive")
        if self.max_epochs <= 0:
            raise ConfigurationError("max_epochs must be positive")
        if self.khugepaged_batch <= 0:
            raise ConfigurationError("khugepaged_batch must be positive")

    @classmethod
    def quick(cls, seed: int = 0) -> "SimConfig":
        """A reduced-cost preset for tests and smoke runs."""
        return cls(stream_length=768, scale=0.25, seed=seed, ibs_rate=2e-4)
