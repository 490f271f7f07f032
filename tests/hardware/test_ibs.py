"""Tests for the IBS-style sampling engine."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.hardware.ibs import IbsEngine, IbsSamples
from tests.per_thread_streams import record_epoch


def make_stream(n=1000, nodes=2, seed=0):
    rng = np.random.default_rng(seed)
    granules = rng.integers(0, 10_000, size=n)
    homes = rng.integers(0, nodes, size=n).astype(np.int8)
    return granules, homes


def record(engine, thread, node, granules, homes, represented, rng):
    """Sample one thread-epoch stream through ``record_epoch_batch``.

    Thread ``thread`` is the batch's one active row; ``rng`` is advanced
    past the draws the batch made from its captured state, so a
    generator passed epoch after epoch keeps drawing fresh samples.
    """
    n = len(granules)
    rows = thread + 1
    streams = np.zeros((rows, n), dtype=np.int64)
    home_rows = np.zeros((rows, n), dtype=np.int8)
    streams[thread], home_rows[thread] = granules, homes
    sizes = np.zeros(rows, dtype=np.int64)
    sizes[thread] = n
    nodes = np.zeros(rows, dtype=np.int64)
    nodes[thread] = node
    states = [rng.bit_generator.state] * rows
    counts = engine.record_epoch_batch(
        np.array([thread]), nodes, streams, home_rows,
        np.zeros((rows, n), dtype=bool), sizes, represented, states,
    )
    if engine.rate > 0 and represented > 0 and n:
        rng.bit_generator.state = engine._replay.bit_generator.state
    return int(counts[thread])


class TestIbsSamples:
    def test_empty(self):
        s = IbsSamples.empty()
        assert len(s) == 0

    def test_concatenate_empty(self):
        assert len(IbsSamples.concatenate([])) == 0

    def test_concatenate(self):
        a = IbsSamples(
            granule=np.array([1]),
            accessing_node=np.array([0], dtype=np.int8),
            home_node=np.array([1], dtype=np.int8),
            thread=np.array([0], dtype=np.int16),
            from_dram=np.array([True]),
        )
        combined = IbsSamples.concatenate([a, a])
        assert len(combined) == 2

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            IbsSamples(
                granule=np.array([1, 2]),
                accessing_node=np.array([0], dtype=np.int8),
                home_node=np.array([1], dtype=np.int8),
                thread=np.array([0], dtype=np.int16),
                from_dram=np.array([True]),
            )


class TestIbsEngine:
    def test_expected_sample_count(self):
        engine = IbsEngine(n_nodes=2, rate=1e-3)
        rng = np.random.default_rng(1)
        total = 0
        for i in range(50):
            g, h = make_stream(seed=i)
            total += record(engine, 0, 0, g, h, 1e5, rng)
        # Expectation: 50 epochs x 1e5 represented x 1e-3 = 5000, but
        # capped at the stream length (1000) per epoch.
        assert 2000 < total <= 50_000

    def test_samples_reflect_stream(self):
        engine = IbsEngine(n_nodes=2, rate=0.5)
        g = np.full(100, 42, dtype=np.int64)
        h = np.ones(100, dtype=np.int8)
        record(engine, 3, 1, g, h, 100, np.random.default_rng(0))
        samples = engine.drain()
        assert len(samples) > 0
        assert np.all(samples.granule == 42)
        assert np.all(samples.home_node == 1)
        assert np.all(samples.accessing_node == 1)
        assert np.all(samples.thread == 3)
        assert np.all(samples.from_dram)

    def test_drain_clears(self):
        engine = IbsEngine(n_nodes=2, rate=0.5)
        g, h = make_stream()
        record(engine, 0, 0, g, h, 1000, np.random.default_rng(0))
        assert len(engine.drain()) > 0
        assert len(engine.drain()) == 0
        assert engine.pending_samples == 0

    def test_per_node_buffers(self):
        engine = IbsEngine(n_nodes=4, rate=0.5)
        g, h = make_stream(nodes=4)
        rng = np.random.default_rng(0)
        for node in range(4):
            record(engine, node, node, g, h, 1000, rng)
        samples = engine.drain()
        assert set(np.unique(samples.accessing_node)) == {0, 1, 2, 3}

    def test_invalid_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            IbsEngine(n_nodes=2, rate=1.5)

    @given(rate=st.floats(min_value=1e-5, max_value=1.0))
    @settings(max_examples=20, deadline=None)
    def test_sample_count_bounded_by_stream(self, rate):
        engine = IbsEngine(n_nodes=2, rate=rate)
        g, h = make_stream(n=200)
        n = record(engine, 0, 0, g, h, 1e9, np.random.default_rng(0))
        assert n <= 200


def _sample_tuples(samples):
    return list(
        zip(
            samples.granule.tolist(),
            samples.accessing_node.tolist(),
            samples.home_node.tolist(),
            samples.thread.tolist(),
            samples.from_dram.tolist(),
            samples.is_write.tolist(),
        )
    )


class TestRecordEpochBatch:
    """record_epoch_batch must be bit-identical to per-thread calls."""

    @staticmethod
    def _epoch_matrices(n_threads, length, seed, n_nodes=2):
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, length + 1, size=n_threads)
        sizes[0] = 0  # one inactive thread
        streams = np.zeros((n_threads, length), dtype=np.int64)
        homes = np.zeros((n_threads, length), dtype=np.int64)
        writes = np.zeros((n_threads, length), dtype=bool)
        for t in range(n_threads):
            n = int(sizes[t])
            streams[t, :n] = rng.integers(0, 10_000, size=n)
            homes[t, :n] = rng.integers(0, n_nodes, size=n)
            writes[t, :n] = rng.random(n) < 0.3
        nodes = rng.integers(0, n_nodes, size=n_threads)
        return sizes, streams, homes, writes, nodes

    @staticmethod
    def _states(seeds):
        """Captured states of generators that already drew a stream."""
        states = []
        for seed in seeds:
            rng = np.random.default_rng(seed)
            rng.integers(0, 1 << 20, size=seed % 5)
            states.append(rng.bit_generator.state)
        return states

    def test_matches_sequential_record_epoch(self):
        """Epoch after epoch, the one replay generator draws what each
        thread's own generator draws (the per-thread oracle in
        ``tests/per_thread_streams.py``)."""
        n_threads, length = 6, 300
        represented = 5e5
        seq = IbsEngine(n_nodes=2, rate=1e-3)
        batch = IbsEngine(n_nodes=2, rate=1e-3)
        for epoch in range(3):
            sizes, streams, homes, writes, nodes = self._epoch_matrices(
                n_threads, length, seed=7 + epoch
            )
            seeds = [1000 * epoch + t for t in range(n_threads)]
            rngs = [np.random.default_rng(seed) for seed in seeds]
            for rng, seed in zip(rngs, seeds):
                rng.integers(0, 1 << 20, size=seed % 5)
            seq_counts = np.zeros(n_threads, dtype=np.int64)
            for t in np.flatnonzero(sizes > 0):
                n = int(sizes[t])
                seq_counts[t] = record_epoch(
                    seq,
                    int(t),
                    int(nodes[t]),
                    streams[t, :n],
                    homes[t, :n],
                    represented,
                    rngs[t],
                    writes=writes[t, :n],
                )

            states = self._states(seeds)
            replayed = [dict(state) for state in states]
            batch_counts = batch.record_epoch_batch(
                np.flatnonzero(sizes > 0),
                nodes,
                streams,
                homes,
                writes,
                sizes,
                represented,
                states,
            )

            assert seq_counts.sum() > 0
            assert np.array_equal(seq_counts, batch_counts)
            assert seq.pending_samples == batch.pending_samples
            # Replaying reads the captured states without changing them.
            assert states == replayed
        assert _sample_tuples(seq.drain()) == _sample_tuples(batch.drain())

    def test_zero_rate_draws_nothing(self):
        sizes, streams, homes, writes, nodes = self._epoch_matrices(3, 50, seed=1)
        engine = IbsEngine(n_nodes=2, rate=0.0)
        states = self._states(range(3))
        counts = engine.record_epoch_batch(
            np.flatnonzero(sizes > 0), nodes, streams, homes, writes, sizes, 1e6,
            states,
        )
        assert counts.sum() == 0
        assert engine.pending_samples == 0
        assert states == self._states(range(3))

    def test_invalid_node_rejected(self):
        sizes, streams, homes, writes, nodes = self._epoch_matrices(3, 50, seed=2)
        nodes[:] = 9
        engine = IbsEngine(n_nodes=2, rate=0.5)
        with pytest.raises(ConfigurationError):
            engine.record_epoch_batch(
                np.flatnonzero(sizes > 0),
                nodes,
                streams,
                homes,
                writes,
                sizes,
                1e6,
                self._states(range(3)),
            )

    def test_store_growth_across_epochs(self):
        # Many small appends must survive buffer growth and drain once,
        # in append order, with correct dtypes.
        engine = IbsEngine(n_nodes=2, rate=1.0)
        rng = np.random.default_rng(3)
        expected = 0
        for epoch in range(40):
            g = np.arange(50, dtype=np.int64) + epoch
            h = np.zeros(50, dtype=np.int8)
            expected += record(engine, epoch % 7, 0, g, h, 50, rng)
        assert engine.pending_samples == expected
        samples = engine.drain()
        assert len(samples) == expected
        assert samples.granule.dtype == np.int64
        assert samples.thread.dtype == np.int16
        assert samples.home_node.dtype == np.int8
        assert samples.accessing_node.dtype == np.int8
        assert engine.pending_samples == 0
        assert len(engine.drain()) == 0
