"""Small shared helpers used across the package."""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np


def stable_seed(*parts: object) -> int:
    """Derive a deterministic 64-bit seed from arbitrary labelled parts.

    Seeds must be stable across processes and Python versions (``hash()``
    is salted), so we hash the repr of the parts with SHA-256.
    """
    text = "\x1f".join(repr(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def run_starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal neighbours in ``values`` begins."""
    new = np.empty(values.size, dtype=bool)
    new[:1] = True
    np.not_equal(values[1:], values[:-1], out=new[1:])
    return np.flatnonzero(new)


def rng_for(*parts: object) -> np.random.Generator:
    """A :class:`numpy.random.Generator` seeded deterministically from parts."""
    return np.random.default_rng(stable_seed(*parts))


class SeedHasher:
    """Prefix-memoized :func:`stable_seed` / :func:`rng_for` for hot loops.

    Call sites that derive many seeds sharing a fixed prefix (the
    stream banks derive one generator per (thread, epoch) with only the
    last two parts varying) pay the prefix repr + hash once here; each
    :meth:`seed` call copies the SHA-256 midstate and hashes only the
    suffix.  ``SeedHasher(*prefix).seed(*suffix)`` is bit-identical to
    ``stable_seed(*prefix, *suffix)`` — the hashed byte stream is the
    same — which makes :meth:`rng_for` a drop-in for the module-level
    :func:`rng_for` (and keeps it a sanctioned generator construction
    site for lint rules R002/R104).
    """

    __slots__ = ("_midstate",)

    def __init__(self, *prefix: object) -> None:
        if not prefix:
            raise ValueError("SeedHasher needs at least one prefix part")
        text = "\x1f".join(repr(p) for p in prefix)
        self._midstate = hashlib.sha256(text.encode("utf-8"))

    def seed(self, *suffix: object) -> int:
        """``stable_seed(*prefix, *suffix)`` from the stored midstate."""
        digest = self._midstate.copy()
        digest.update(
            "".join("\x1f" + repr(p) for p in suffix).encode("utf-8")
        )
        return int.from_bytes(digest.digest()[:8], "little")

    def rng_for(self, *suffix: object) -> np.random.Generator:
        """A generator seeded with ``stable_seed(*prefix, *suffix)``."""
        return np.random.default_rng(self.seed(*suffix))


def rng_from_state(
    state: dict, rng: Optional[np.random.Generator] = None
) -> np.random.Generator:
    """Replay a captured ``bit_generator.state`` dict.

    The stream-bank machinery memoizes access streams together with the
    post-generation RNG state of each thread-epoch generator, so later
    consumers of the same generator (the IBS sampler) draw exactly the
    values they would have drawn had the stream been generated in-line.
    The state must originate from a :func:`rng_for` generator; this is
    a replay mechanism, never a fresh randomness source, which is why
    it sits next to ``rng_for`` as the only other sanctioned
    ``np.random`` construction site (lint rule R002/R104).

    Given ``rng``, the state is loaded into that generator, which is
    returned: a consumer replaying one state after another reuses one
    generator instead of building one per state.  Otherwise a new
    generator is built from a fixed seed, so no OS entropy is drawn
    for a state that overwrites it at once.
    """
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(0))
    rng.bit_generator.state = state
    return rng


def ceil_div(numerator: int, denominator: int) -> int:
    """Integer ceiling division for non-negative operands."""
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    return -(-numerator // denominator)


def human_bytes(n: int) -> str:
    """Render a byte count with a binary-unit suffix (e.g. ``1.5 GiB``)."""
    size = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if size < 1024.0 or unit == "TiB":
            if unit == "B":
                return f"{int(size)} {unit}"
            return f"{size:.1f} {unit}"
        size /= 1024.0
    raise AssertionError("unreachable")
