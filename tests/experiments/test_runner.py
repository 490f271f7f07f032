"""Tests for the experiment runner, policy registry and CLI plumbing."""

import pytest

from repro.errors import (
    ConfigurationError,
    UnknownPolicyError,
    UnknownWorkloadError,
)
from repro.core.carrefour import CarrefourConfig, CarrefourPolicy
from repro.core.carrefour_lp import CarrefourLpPolicy
from repro.core.pt_replication import PtReplicationPolicy
from repro.core.reactive import ReactiveConfig
from repro.experiments.configs import (
    POLICIES,
    make_policy,
    policy_descriptions,
)
from repro.sim.policy import PolicyStack
from repro.experiments.runner import (
    RunSettings,
    clear_cache,
    run_benchmark,
)
from repro.sim.policy import LinuxPolicy


class TestPolicyRegistry:
    def test_all_policies_registered(self):
        assert set(POLICIES) == {
            "linux-4k",
            "thp",
            "carrefour-4k",
            "carrefour-2m",
            "carrefour-lp",
            "reactive-only",
            "conservative-only",
            "carrefour-lp-lwp",
            "autonuma",
            "autonuma-4k",
            "interleave-4k",
            "interleave-thp",
            "pt-remote",
            "replication",
            "pressure-reclaim",
        }

    def test_lwp_policy_flag(self):
        policy = make_policy("carrefour-lp-lwp")
        assert policy.lwp
        assert not make_policy("carrefour-lp").lwp

    def test_factory_types(self):
        assert isinstance(make_policy("linux-4k"), LinuxPolicy)
        assert isinstance(make_policy("carrefour-2m"), CarrefourPolicy)
        assert isinstance(make_policy("carrefour-lp"), CarrefourLpPolicy)

    def test_names_match(self):
        for name in POLICIES:
            assert make_policy(name).name == name

    def test_unknown_policy(self):
        with pytest.raises(UnknownPolicyError):
            make_policy("nope")

    def test_unknown_policy_suggests_closest(self):
        with pytest.raises(UnknownPolicyError, match="did you mean 'thp'"):
            make_policy("tph")
        with pytest.raises(
            UnknownPolicyError, match="did you mean 'carrefour-lp'"
        ):
            make_policy("carrefour_lp")

    def test_unknown_policy_without_close_match_lists_available(self):
        with pytest.raises(UnknownPolicyError, match="available:") as err:
            make_policy("zzzzzzzz")
        assert "did you mean" not in str(err.value)

    def test_reactive_only_flags(self):
        policy = make_policy("reactive-only")
        assert policy.reactive is not None
        assert policy.conservative is None

    def test_conservative_only_flags(self):
        policy = make_policy("conservative-only")
        assert policy.reactive is None
        assert policy.conservative is not None

    def test_replication_factories(self):
        assert isinstance(make_policy("pt-remote"), PtReplicationPolicy)
        assert isinstance(make_policy("replication"), PtReplicationPolicy)


class TestPolicyComposition:
    def test_plus_builds_stack(self):
        policy = make_policy("carrefour-2m+replication")
        assert isinstance(policy, PolicyStack)
        assert policy.name == "carrefour-2m+replication"
        assert [m.name for m in policy.members] == [
            "carrefour-2m",
            "replication",
        ]

    def test_members_get_the_seed(self):
        policy = make_policy("carrefour-2m+replication", seed=7)
        assert isinstance(policy.members[0], CarrefourPolicy)

    def test_empty_member_rejected(self):
        with pytest.raises(ConfigurationError, match="empty member"):
            make_policy("thp++replication")
        with pytest.raises(ConfigurationError, match="empty member"):
            make_policy("thp+")

    def test_duplicate_member_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate member"):
            make_policy("thp+thp")

    def test_unknown_member_names_the_culprit(self):
        with pytest.raises(UnknownPolicyError, match="replicatio"):
            make_policy("thp+replicatio")

    def test_stack_wants_ibs_if_any_member_does(self):
        assert make_policy("carrefour-2m+replication").wants_ibs()
        assert not make_policy("thp+replication").wants_ibs()

    def test_stack_takes_no_params(self):
        params = (("config", CarrefourConfig()),)
        with pytest.raises(ConfigurationError, match="takes no params"):
            make_policy("carrefour-2m+replication", params=params)


class TestPolicyParams:
    def test_carrefour_lp_reactive_config(self):
        cfg = ReactiveConfig(hot_page_pct=3.0)
        policy = make_policy(
            "carrefour-lp", seed=3, params=(("reactive_config", cfg),)
        )
        assert isinstance(policy, CarrefourLpPolicy)
        assert policy.reactive.config is cfg
        assert policy.name == "carrefour-lp"

    def test_carrefour_2m_config(self):
        cfg = CarrefourConfig(max_migration_bytes_per_interval=1 << 20)
        policy = make_policy("carrefour-2m", params=(("config", cfg),))
        assert isinstance(policy, CarrefourPolicy) and policy.thp
        assert policy.engine.config is cfg

    @pytest.mark.parametrize("name", ["thp", "linux-4k", "reactive-only"])
    def test_other_policies_take_none(self, name):
        with pytest.raises(TypeError):
            make_policy(name, params=(("config", CarrefourConfig()),))

    def test_unknown_param_rejected(self):
        with pytest.raises(TypeError):
            make_policy("carrefour-lp", params=(("no_such_knob", 1),))


class TestPolicyDescriptions:
    def test_every_policy_documented(self):
        descriptions = policy_descriptions()
        assert set(descriptions) == set(POLICIES)
        for name, text in descriptions.items():
            assert text and text != "(undocumented)", name

    def test_descriptions_reference_the_paper_labels(self):
        descriptions = policy_descriptions()
        assert "Linux" in descriptions["linux-4k"]
        assert "Mitosis" in descriptions["replication"]


class TestRunner:
    def test_run_benchmark_cached(self, quick_settings):
        a = run_benchmark("Kmeans", "A", "linux-4k", quick_settings)
        b = run_benchmark("Kmeans", "A", "linux-4k", quick_settings)
        assert a is b  # memoised

    def test_cache_key_distinguishes_policy(self, quick_settings):
        a = run_benchmark("Kmeans", "A", "linux-4k", quick_settings)
        b = run_benchmark("Kmeans", "A", "thp", quick_settings)
        assert a is not b

    def test_no_cache_option(self, quick_settings):
        a = run_benchmark("Kmeans", "A", "linux-4k", quick_settings)
        b = run_benchmark(
            "Kmeans", "A", "linux-4k", quick_settings, use_cache=False
        )
        assert a is not b
        assert a.runtime_s == b.runtime_s  # but deterministic

    def test_improvement_signs(self, quick_settings):
        base = run_benchmark("Kmeans", "A", "linux-4k", quick_settings)
        assert base.improvement_over(base) == pytest.approx(0.0)

    def test_unknown_workload(self, quick_settings):
        with pytest.raises(UnknownWorkloadError):
            run_benchmark("nope", "A", "thp", quick_settings)

    def test_settings_default(self):
        settings = RunSettings()
        assert settings.config.scale == 1.0

    def test_clear_cache(self, quick_settings):
        a = run_benchmark("Kmeans", "A", "linux-4k", quick_settings)
        clear_cache()
        b = run_benchmark("Kmeans", "A", "linux-4k", quick_settings)
        assert a is not b
