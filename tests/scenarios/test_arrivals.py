"""Unit tests for the arrival-generator registry and builtins."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    ARRIVALS,
    ArrivalGenerator,
    ScenarioConfig,
    available_arrivals,
    make_arrival_generator,
)


def _schedule(scenario, n_epochs=300):
    """Materialise a generator's full arrival schedule."""
    gen = make_arrival_generator(scenario)
    active = 0
    out = []
    for epoch in range(n_epochs):
        arrivals = gen.arrivals(epoch, active)
        active += len(arrivals)
        for pair in arrivals:
            out.append((epoch, *pair))
    return out


class TestRegistry:
    def test_builtins_registered(self):
        assert set(available_arrivals()) == {
            "poisson",
            "fixed-trace",
            "closed-loop",
        }

    def test_names_match_keys(self):
        for key, cls in ARRIVALS.items():
            assert cls.name == key
            assert issubclass(cls, ArrivalGenerator)

    def test_unknown_arrival_rejected_with_hint(self):
        scenario = ScenarioConfig(arrival="poison")
        with pytest.raises(ConfigurationError, match="poisson"):
            make_arrival_generator(scenario)


class TestScenarioConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workloads": ()},
            {"policies": ()},
            {"arrival_rate": -0.1},
            {"max_tenants": 0},
            {"target_active": 0},
            {"max_host_epochs": 0},
            {"tenant_epochs": 0},
            {"pressure": -0.1},
            {"pressure": 1.0},
            {"trace": ((-1, "SSCA.20", "thp"),)},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ScenarioConfig(**kwargs)

    def test_frozen(self):
        scenario = ScenarioConfig()
        with pytest.raises(Exception):
            scenario.seed = 1


class TestPoisson:
    def test_schedule_deterministic_per_seed(self):
        scenario = ScenarioConfig(
            arrival_rate=0.1, max_tenants=8, seed=3,
            workloads=("SSCA.20", "CG.D"), policies=("thp",),
        )
        assert _schedule(scenario) == _schedule(scenario)

    def test_ci_scenario_schedule_is_pinned(self):
        """CI's colocation (seed 7, rate 0.5, three tenants): one arrival
        at host epoch 0, two at epoch 4 and none at epochs 1-3 or 5-7.
        A change to the arrivals' generator, its key or its draw moves
        the schedule, while the completion counts stay the same."""
        scenario = ScenarioConfig(
            arrival_rate=0.5, max_tenants=3, seed=7,
            workloads=("SSCA.20", "Kmeans"), policies=("thp", "carrefour-lp"),
        )
        assert _schedule(scenario, n_epochs=8) == [
            (0, "SSCA.20", "thp"),
            (4, "Kmeans", "carrefour-lp"),
            (4, "SSCA.20", "thp"),
        ]

    def test_different_seeds_differ(self):
        a = ScenarioConfig(arrival_rate=0.1, max_tenants=8, seed=0)
        b = ScenarioConfig(arrival_rate=0.1, max_tenants=8, seed=1)
        assert _schedule(a) != _schedule(b)

    def test_caps_at_max_tenants(self):
        scenario = ScenarioConfig(arrival_rate=5.0, max_tenants=3)
        schedule = _schedule(scenario, n_epochs=50)
        assert len(schedule) == 3
        gen = make_arrival_generator(scenario)
        for epoch in range(50):
            gen.arrivals(epoch, 0)
        assert gen.exhausted()

    def test_round_robin_assignment(self):
        scenario = ScenarioConfig(
            arrival_rate=5.0, max_tenants=4,
            workloads=("SSCA.20", "CG.D"), policies=("thp", "linux-4k"),
        )
        pairs = [(w, p) for _, w, p in _schedule(scenario, n_epochs=50)]
        assert pairs == [
            ("SSCA.20", "thp"),
            ("CG.D", "linux-4k"),
            ("SSCA.20", "thp"),
            ("CG.D", "linux-4k"),
        ]


class TestFixedTrace:
    def test_replays_exact_schedule(self):
        scenario = ScenarioConfig(
            arrival="fixed-trace",
            trace=((0, "SSCA.20", "thp"), (5, "CG.D", "carrefour-lp")),
            max_tenants=8,
        )
        assert _schedule(scenario, n_epochs=10) == [
            (0, "SSCA.20", "thp"),
            (5, "CG.D", "carrefour-lp"),
        ]

    def test_exhausts_after_last_entry(self):
        scenario = ScenarioConfig(
            arrival="fixed-trace",
            trace=((3, "SSCA.20", "thp"),),
            max_tenants=8,
        )
        gen = make_arrival_generator(scenario)
        assert not gen.exhausted()
        for epoch in range(4):
            gen.arrivals(epoch, 0)
        assert gen.exhausted()

    def test_caps_at_max_tenants(self):
        scenario = ScenarioConfig(
            arrival="fixed-trace",
            trace=tuple((0, "SSCA.20", "thp") for _ in range(5)),
            max_tenants=2,
        )
        assert len(_schedule(scenario, n_epochs=5)) == 2


class TestClosedLoop:
    def test_tops_up_to_target(self):
        scenario = ScenarioConfig(
            arrival="closed-loop", target_active=3, max_tenants=10
        )
        gen = make_arrival_generator(scenario)
        assert len(gen.arrivals(0, 0)) == 3
        assert len(gen.arrivals(1, 3)) == 0
        # One exit -> one replacement.
        assert len(gen.arrivals(2, 2)) == 1

    def test_budget_bounds_replacements(self):
        scenario = ScenarioConfig(
            arrival="closed-loop", target_active=2, max_tenants=3
        )
        gen = make_arrival_generator(scenario)
        assert len(gen.arrivals(0, 0)) == 2
        assert len(gen.arrivals(1, 0)) == 1
        assert gen.exhausted()
        assert gen.arrivals(2, 0) == []
