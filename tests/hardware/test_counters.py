"""Tests for performance-counter accounting and derived metrics."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hardware.counters import CounterBank, EpochCounters


def make_epoch(epoch=0, traffic=None, duration=1.0, **kwargs):
    if traffic is None:
        traffic = np.zeros((2, 2))
    return EpochCounters(epoch=epoch, duration_s=duration, traffic=traffic, **kwargs)


class TestEpochCounters:
    def test_requests(self):
        e = make_epoch(traffic=np.array([[3.0, 1.0], [2.0, 4.0]]))
        assert e.dram_requests == 10.0

    def test_non_square_rejected(self):
        with pytest.raises(ConfigurationError):
            make_epoch(traffic=np.zeros((2, 3)))

    def test_negative_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            make_epoch(duration=-1.0)


class TestCounterBank:
    def test_lar(self):
        bank = CounterBank(2, 4)
        bank.add(make_epoch(traffic=np.array([[8.0, 2.0], [2.0, 8.0]])))
        assert bank.lar() == pytest.approx(80.0)

    def test_lar_empty_bank(self):
        assert CounterBank(2, 4).lar() == 100.0

    def test_imbalance_balanced(self):
        bank = CounterBank(2, 4)
        bank.add(make_epoch(traffic=np.array([[5.0, 0.0], [0.0, 5.0]])))
        assert bank.imbalance() == pytest.approx(0.0)

    def test_imbalance_skewed(self):
        bank = CounterBank(2, 4)
        # All traffic to controller 0: per-controller [10, 0].
        bank.add(make_epoch(traffic=np.array([[10.0, 0.0], [0.0, 0.0]])))
        assert bank.imbalance() == pytest.approx(100.0)

    def test_wrong_shape_rejected(self):
        bank = CounterBank(3, 4)
        with pytest.raises(ConfigurationError):
            bank.add(make_epoch(traffic=np.zeros((2, 2))))

    def test_pct_l2_walks(self):
        bank = CounterBank(2, 4)
        bank.add(make_epoch(walk_l2_misses=10.0, l2_data_misses=90.0))
        assert bank.pct_l2_misses_from_walks() == pytest.approx(10.0)

    def test_pct_l2_walks_no_misses(self):
        assert CounterBank(2, 4).pct_l2_misses_from_walks() == 0.0

    def test_max_fault_fraction(self):
        bank = CounterBank(2, 4)
        bank.add(
            make_epoch(
                duration=2.0,
                fault_time_per_core_s=np.array([0.2, 1.0, 0.0, 0.0]),
            )
        )
        assert bank.max_fault_time_fraction() == pytest.approx(50.0)

    def test_total_fault_time(self):
        bank = CounterBank(2, 4)
        bank.add(make_epoch(fault_time_per_core_s=np.array([0.1, 0.2, 0.0, 0.0])))
        bank.add(make_epoch(epoch=1, fault_time_per_core_s=np.array([0.1, 0.0, 0.0, 0.0])))
        assert bank.total_fault_time_s() == pytest.approx(0.4)

    def test_window_selects_epochs(self):
        bank = CounterBank(2, 4)
        for i in range(5):
            bank.add(make_epoch(epoch=i, l2_data_misses=float(i)))
        window = bank.window(2, 4)
        assert [e.epoch for e in window.epochs] == [2, 3]
        assert window.total("l2_data_misses") == 5.0

    def test_window_open_ended(self):
        bank = CounterBank(2, 4)
        for i in range(4):
            bank.add(make_epoch(epoch=i))
        assert len(bank.window(2).epochs) == 2

    def test_maptu(self):
        bank = CounterBank(2, 4)
        bank.add(make_epoch(duration=1.0, l2_data_misses=5e8))
        assert bank.maptu() == pytest.approx(500.0)

    def test_describe_runs(self):
        bank = CounterBank(2, 4)
        bank.add(make_epoch())
        assert "epochs" in bank.describe()
