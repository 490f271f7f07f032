"""Small shared helpers used across the package."""

from __future__ import annotations

import hashlib
from typing import List, Optional, Sequence

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
    same — so :func:`default_rng_states` of its seeds are the states
    ``rng_for(*prefix, *suffix)`` starts from.
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


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The ``(xor, multiplier)`` pairs of ``n`` successive SeedSequence
    hashes, shaped ``(2, n, 1)`` to broadcast over a batch of seeds.

    Each hash xors its value with the running constant, multiplies the
    constant by ``mult`` and then the value by the new constant, so the
    constants never depend on the data.
    """
    pairs = []
    for _ in range(n):
        nxt = (init * mult) & 0xFFFFFFFF
        pairs.append((init, nxt))
        init = nxt
    return np.array(pairs, dtype=np.uint32).T[:, :, None]


#: numpy's ``SeedSequence`` with its default four-word pool: the
#: constants of the 16 hashes that mix an entropy of up to four words
#: into the pool (four to fill it, then three per source word as each
#: word mixes into every other, in ascending order), and of the 8 that
#: draw four ``uint64`` words from it.
_MIX_HASHES = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_FILL_HASHES = _MIX_HASHES[:, :4]
_MIX_STEPS = tuple(
    (src, [dst for dst in range(4) if dst != src],
     _MIX_HASHES[:, 4 + 3 * src:7 + 3 * src])
    for src in range(4)
)
_DRAW_HASHES = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _hashmix(words: np.ndarray, constants: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of ``uint32`` words, one row per row
    of ``constants``."""
    hashed = words ^ constants[0]
    hashed *= constants[1]
    hashed ^= hashed >> 16
    return hashed


def default_rng_states(seeds: Sequence[int]) -> List[dict]:
    """``np.random.default_rng(seed).bit_generator.state`` for every
    64-bit seed, computed for the whole batch at once.

    ``default_rng(seed)`` builds a ``PCG64`` from ``SeedSequence(seed)``,
    which hashes the seed's little-endian ``uint32`` words into a
    four-word pool and draws four ``uint64`` words from it: a 128-bit
    seed and stream.  A seed below ``2**32`` has one entropy word, but
    its mix pads the pool with hashes of zero, so it mixes exactly as
    its two-word form.  The pool's arithmetic runs once over a
    ``(words, seeds)`` array; PCG64's seeding (``inc = 2 * stream + 1``,
    one LCG step from ``inc + seed``) runs on Python integers.  Each
    state loads through :func:`rng_from_state`.
    """
    seeds = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0] = seeds & 0xFFFFFFFF
    pool[1] = seeds >> 32
    pool = _hashmix(pool, _FILL_HASHES)
    # Each word mixes into every other: ``mix(x, y) = L * x - R * y``,
    # then an xorshift.  The hashes of one source word do not depend on
    # the words it updates, so each source's three updates run as one.
    for src, others, constants in _MIX_STEPS:
        hashed = _hashmix(pool[src], constants)
        hashed *= _MIX_R
        mixed = pool[others]
        mixed *= _MIX_L
        mixed -= hashed
        mixed ^= mixed >> 16
        pool[others] = mixed
    drawn = _hashmix(np.concatenate([pool, pool]), _DRAW_HASHES)
    drawn = drawn.astype(np.uint64)
    words = drawn[0::2]
    words |= drawn[1::2] << 32
    states = []
    for seed_hi, seed_lo, stream_hi, stream_lo in words.T.tolist():
        inc = ((stream_hi << 65) | (stream_lo << 1) | 1) & _MASK128
        state = ((inc + ((seed_hi << 64) | seed_lo)) * _PCG64_MULT + inc) & _MASK128
        states.append({
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        })
    return states


def rng_from_state(
    state: dict, rng: Optional[np.random.Generator] = None
) -> np.random.Generator:
    """Replay a captured ``bit_generator.state`` dict.

    The stream banks start each thread-epoch generator from its
    :func:`default_rng_states` state, and memoize its post-generation
    state, so later consumers of the same generator (the IBS sampler)
    draw exactly the values they would have drawn had the stream been
    generated in-line.  The state must be one a :func:`rng_for`
    generator starts from or reaches; this is a replay mechanism, never
    a fresh randomness source, which is why it sits next to ``rng_for``
    as the only other sanctioned ``np.random`` construction site (lint
    rule R104).

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
