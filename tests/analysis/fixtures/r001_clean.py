"""R001 counterexamples: complete keys, class constants, generic coverage."""

import dataclasses
from dataclasses import dataclass
from typing import ClassVar


@dataclass(frozen=True)
class CompleteSettings:
    workload: str = "CG.D"
    seed: int = 0
    scale: float = 1.0

    def cache_key(self):
        return (self.workload, self.seed, self.scale)


@dataclass(frozen=True)
class SettingsWithConstants:
    workload: str = "CG.D"
    seed: int = 0

    #: Class constants and private attributes are not fields.
    KIND: ClassVar[str] = "settings"
    _registry: ClassVar[dict] = {}

    def cache_key(self):
        return (self.KIND, self.workload, self.seed)


@dataclass(frozen=True)
class GenericSettings:
    workload: str = "CG.D"
    seed: int = 0
    scale: float = 1.0

    def fingerprint(self):
        return tuple(
            getattr(self, f.name) for f in dataclasses.fields(self)
        )


@dataclass(frozen=True)
class NoKeyMethod:
    workload: str = "CG.D"
    seed: int = 0
