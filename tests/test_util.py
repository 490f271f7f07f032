"""Tests for shared helpers and the error hierarchy."""

import numpy as np
import pytest

from repro import errors
from repro._util import (
    SeedHasher,
    ceil_div,
    default_rng_states,
    human_bytes,
    rng_for,
    rng_from_state,
    stable_seed,
)


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed("a", 1, 2.5) == stable_seed("a", 1, 2.5)

    def test_order_sensitive(self):
        assert stable_seed("a", "b") != stable_seed("b", "a")

    def test_part_boundaries_matter(self):
        assert stable_seed("ab", "c") != stable_seed("a", "bc")

    def test_64_bit_range(self):
        seed = stable_seed("x")
        assert 0 <= seed < 2**64


class TestRngFor:
    def test_same_parts_same_stream(self):
        a = rng_for("w", 0).random(5)
        b = rng_for("w", 0).random(5)
        assert np.array_equal(a, b)

    def test_different_parts_differ(self):
        a = rng_for("w", 0).random(5)
        b = rng_for("w", 1).random(5)
        assert not np.array_equal(a, b)


class TestRngFromState:
    @staticmethod
    def _captured():
        rng = rng_for("w", 0)
        rng.integers(0, 100, size=7)
        return rng.bit_generator.state, rng.random(5)

    def test_resumes_the_captured_generator(self):
        state, after = self._captured()
        assert np.array_equal(rng_from_state(state).random(5), after)

    def test_reused_generator_replays_each_state(self):
        state, after = self._captured()
        rng = rng_from_state(rng_for("other").bit_generator.state)
        rng.random(3)  # a partly consumed generator, as after a thread
        assert rng_from_state(state, rng) is rng
        assert np.array_equal(rng.random(5), after)
        assert rng_from_state(state, rng).bit_generator.state == state


class TestSeedHasher:
    """The midstate shortcut must be indistinguishable from the full hash."""

    def test_seed_matches_stable_seed(self):
        hasher = SeedHasher(0, 7, "CG.D", "stream")
        for thread in (0, 3, 43):
            for epoch in (0, 15, 9999):
                assert hasher.seed(thread, epoch) == stable_seed(
                    0, 7, "CG.D", "stream", thread, epoch
                )

    def test_non_ascii_and_structured_parts(self):
        hasher = SeedHasher("naïve", (1, 2))
        assert hasher.seed("ü", -3) == stable_seed("naïve", (1, 2), "ü", -3)

    def test_empty_suffix(self):
        assert SeedHasher("a", 1).seed() == stable_seed("a", 1)

    def test_rng_matches_rng_for(self):
        """A hasher's seed, through its start state, draws exactly what
        the generator ``rng_for`` builds does."""
        hasher = SeedHasher("w", "stream")
        (state,) = default_rng_states([hasher.seed(2, 5)])
        a = rng_from_state(state).random(8)
        b = rng_for("w", "stream", 2, 5).random(8)
        assert np.array_equal(a, b)

    def test_empty_prefix_rejected(self):
        with pytest.raises(ValueError):
            SeedHasher()


class TestDefaultRngStates:
    """One batch computes the states ``np.random.default_rng`` seeds."""

    #: Zero, the largest one-word seed, the smallest two-word one and
    #: the largest 64-bit seed.
    EDGES = [0, 2**32 - 1, 2**32, 2**64 - 1]

    def test_matches_default_rng_on_10000_seeds_and_the_edges(self):
        drawn = rng_for("default_rng_states").integers(
            0, 2**64 - 1, size=10_000, dtype=np.uint64, endpoint=True
        )
        seeds = self.EDGES + drawn.tolist()
        states = default_rng_states(seeds)
        assert len(states) == len(seeds)
        for seed, state in zip(seeds, states):
            assert state == np.random.default_rng(seed).bit_generator.state

    def test_one_word_seeds_below_2_32(self):
        """Seeds whose entropy is one ``uint32`` word, and a row of
        consecutive ones."""
        seeds = list(range(64)) + [2**31, 2**32 - 2]
        for seed, state in zip(seeds, default_rng_states(seeds)):
            assert state == np.random.default_rng(seed).bit_generator.state

    def test_a_stream_banks_seeds(self):
        """The seeds a bank row derives: every thread of one epoch."""
        hasher = SeedHasher(0, 7, "CG.D", "stream")
        seeds = [hasher.seed(t, 3) for t in range(64)]
        for t, state in enumerate(default_rng_states(seeds)):
            replayed = rng_from_state(state).random(4)
            want = rng_for(0, 7, "CG.D", "stream", t, 3).random(4)
            assert np.array_equal(replayed, want)

    def test_an_empty_batch(self):
        assert default_rng_states([]) == []


class TestCeilDiv:
    def test_exact(self):
        assert ceil_div(8, 4) == 2

    def test_rounds_up(self):
        assert ceil_div(9, 4) == 3

    def test_zero_numerator(self):
        assert ceil_div(0, 4) == 0

    def test_bad_denominator(self):
        with pytest.raises(ValueError):
            ceil_div(4, 0)


class TestFormatting:
    def test_human_bytes_small(self):
        assert human_bytes(512) == "512 B"

    def test_human_bytes_kib(self):
        assert human_bytes(2048) == "2.0 KiB"

    def test_human_bytes_gib(self):
        assert human_bytes(7 * (1 << 30)) == "7.0 GiB"

    def test_human_bytes_huge(self):
        assert "TiB" in human_bytes(1 << 45)


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for exc in (
            errors.ConfigurationError,
            errors.AllocationError,
            errors.MappingError,
            errors.SimulationError,
            errors.UnknownWorkloadError,
            errors.UnknownPolicyError,
        ):
            assert issubclass(exc, errors.ReproError)

    def test_lookup_errors_are_key_errors(self):
        assert issubclass(errors.UnknownWorkloadError, KeyError)
        assert issubclass(errors.UnknownPolicyError, KeyError)
