"""Tests for simulation configuration."""

import pytest

from repro.errors import ConfigurationError
from repro.sim.config import SimConfig


class TestSimConfig:
    def test_defaults_valid(self):
        cfg = SimConfig()
        assert cfg.stream_length > 0
        assert 0 < cfg.scale <= 1.0

    def test_quick_preset(self):
        cfg = SimConfig.quick(seed=7)
        assert cfg.seed == 7
        assert cfg.scale < 1.0
        assert cfg.stream_length < SimConfig().stream_length

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"stream_length": 0},
            {"scale": 0},
            {"scale": 1.5},
            {"ibs_rate": -0.1},
            {"ibs_rate": 1.5},
            {"max_epochs": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SimConfig(**kwargs)

    def test_frozen(self):
        cfg = SimConfig()
        with pytest.raises(Exception):
            cfg.scale = 0.5
