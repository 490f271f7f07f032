"""Bit-exact goldens pinning the vectorized epoch hot path.

The values below were captured from the original per-thread engine
loop (pre-vectorization) at the quick preset, seed 0, as hex float
literals — any drift in the batched bincount/`np.add.at` path, the
hoisted RNG spawning, or stream handling shows up as an exact
mismatch, not a tolerance failure.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.experiments.runner import RunSettings, RunSpec, run_benchmark

# (workload, machine, policy, backing_1g) -> field -> float.hex()
GOLDENS = {
    ("CG.D", "B", "thp", False): {
        "runtime_s": "0x1.8b6639bf68193p+2",
        "first_epoch_s": "0x1.a4666aaa921dfp-2",
        "last_epoch_s": "0x1.89e6271b01e0dp-2",
        "tlb_misses": "0x1.23658fc080339p+23",
        "traffic_total": "0x1.3ab6680000000p+31",
        "faults_4k": "0x0.0p+0",
        "ibs_time": "0x0.0p+0",
        "dram_time": "0x1.0a10e8857b011p+8",
    },
    ("SSCA.20", "A", "carrefour-lp", False): {
        "runtime_s": "0x1.4d59258ed953bp+2",
        "first_epoch_s": "0x1.7c4d6eda8fad6p-2",
        "last_epoch_s": "0x1.19ce839c3a94ap-2",
        "tlb_misses": "0x1.3a9d3c9b781d6p+27",
        "traffic_total": "0x1.1e1a300000000p+30",
        "faults_4k": "0x0.0p+0",
        "ibs_time": "0x1.68021ecad3042p-2",
        "dram_time": "0x1.4ed124349d0d4p+6",
    },
    ("WC", "B", "linux-4k", False): {
        "runtime_s": "0x1.3bccca4bff9f4p+3",
        "first_epoch_s": "0x1.028288341d9a8p+2",
        "last_epoch_s": "0x1.6dbe0906be808p-2",
        "tlb_misses": "0x1.639933630eed8p+28",
        "traffic_total": "0x1.017df80000000p+31",
        "faults_4k": "0x1.f000000000000p+19",
        "ibs_time": "0x0.0p+0",
        "dram_time": "0x1.e10b35166a2cfp+7",
    },
    ("streamcluster", "B", "linux-4k", True): {
        "runtime_s": "0x1.01cc6916de335p+3",
        "first_epoch_s": "0x1.0f7c1ddd0fe37p-1",
        "last_epoch_s": "0x1.00e3aae11f090p-1",
        "tlb_misses": "0x0.0p+0",
        "traffic_total": "0x1.1e1a300000000p+31",
        "faults_4k": "0x0.0p+0",
        "ibs_time": "0x0.0p+0",
        "dram_time": "0x1.879f4ac50b355p+8",
    },
}


def _observe(result) -> dict:
    return {
        "runtime_s": result.runtime_s.hex(),
        "first_epoch_s": result.epoch_times_s[0].hex(),
        "last_epoch_s": result.epoch_times_s[-1].hex(),
        "tlb_misses": result.bank.total("tlb_misses").hex(),
        "traffic_total": float(
            sum(e.traffic.sum() for e in result.bank.epochs)
        ).hex(),
        "faults_4k": result.bank.total("page_faults_4k").hex(),
        "ibs_time": result.bank.total("time_ibs_s").hex(),
        "dram_time": result.bank.total("time_dram_s").hex(),
    }


@pytest.mark.parametrize("case", sorted(GOLDENS, key=repr), ids=lambda c: f"{c[0]}-{c[1]}-{c[2]}{'-1g' if c[3] else ''}")
def test_vectorized_engine_matches_pre_change_goldens(case, quick_settings):
    workload, machine, policy, backing_1g = case
    result = run_benchmark(
        workload, machine, policy, quick_settings, backing_1g=backing_1g
    )
    assert _observe(result) == GOLDENS[case]


def test_engine_deterministic_across_repeats(quick_settings):
    a = run_benchmark("Kmeans", "A", "thp", quick_settings, use_cache=False)
    b = run_benchmark("Kmeans", "A", "thp", quick_settings, use_cache=False)
    assert a.runtime_s == b.runtime_s
    assert a.epoch_times_s == b.epoch_times_s
    assert a.bank.total("tlb_misses") == b.bank.total("tlb_misses")


# --- Full policy matrix: decision-equivalence goldens -----------------
#
# One run per registry entry (SSCA.20 on machine A, quick preset,
# seed 0). The twelve pre-existing policies were captured from the
# per-policy mutation path *before* the decision-kernel refactor, so
# any behavioural drift in the decide/execute split shows up as an
# exact hex or fingerprint mismatch. The decision-native policies
# (pt-remote, replication, pressure-reclaim) are pinned from their
# introduction.

POLICY_MATRIX = {
    'linux-4k': {
        'runtime_s': '0x1.676fcccaeadbap+2',
        'daemon_time': '0x0.0p+0',
        'fingerprint': '31b53b6ce0d5756d59fcf48bc3168ef516f003342b2d6b1a1f7172a5d3b66901',
        'actions': {
            'migrated_4k': 0,
            'migrated_2m': 0,
            'bytes_migrated': 0,
            'splits_2m': 0,
            'splits_1g': 0,
            'collapses_2m': 0,
            'replicated_pages': 0,
            'bytes_replicated': 0,
            'compute_s': '0x0.0p+0',
            'n_notes': 0,
        },
    },
    'thp': {
        'runtime_s': '0x1.497f7a8b08110p+2',
        'daemon_time': '0x0.0p+0',
        'fingerprint': '973b430e4c04931eefbfcf22bae9111bfaa90b71312c8b9064c0196064e8c07e',
        'actions': {
            'migrated_4k': 0,
            'migrated_2m': 0,
            'bytes_migrated': 0,
            'splits_2m': 0,
            'splits_1g': 0,
            'collapses_2m': 0,
            'replicated_pages': 0,
            'bytes_replicated': 0,
            'compute_s': '0x0.0p+0',
            'n_notes': 0,
        },
    },
    'carrefour-4k': {
        'runtime_s': '0x1.750034c8237f1p+2',
        'daemon_time': '0x1.b284dbea08fcbp-1',
        'fingerprint': '0d8b76998001f5ec3b7c1fff3c5f3597bd92f2764448f901f740ba216c2ff36d',
        'actions': {
            'migrated_4k': 71407,
            'migrated_2m': 0,
            'bytes_migrated': 292483072,
            'splits_2m': 0,
            'splits_1g': 0,
            'collapses_2m': 0,
            'replicated_pages': 292,
            'bytes_replicated': 3588096,
            'compute_s': '0x1.566857016e951p-5',
            'n_notes': 0,
        },
    },
    'carrefour-2m': {
        'runtime_s': '0x1.2da3adbc75524p+2',
        'daemon_time': '0x1.23186c00b0df5p-2',
        'fingerprint': '5d4999d9fb5293c6dc8e8a2f36167797e32f052d7ca33164148c69c9e536e8b4',
        'actions': {
            'migrated_4k': 0,
            'migrated_2m': 287,
            'bytes_migrated': 601882624,
            'splits_2m': 0,
            'splits_1g': 0,
            'collapses_2m': 0,
            'replicated_pages': 0,
            'bytes_replicated': 0,
            'compute_s': '0x1.566857016e950p-5',
            'n_notes': 1,
        },
    },
    'carrefour-lp': {
        'runtime_s': '0x1.4d59258ed953bp+2',
        'daemon_time': '0x1.3ed6dc859ea88p+0',
        'fingerprint': 'b876ce4de0799eed202075bfc67a247b19395ceb6292925f52749c85dc5e09f5',
        'actions': {
            'migrated_4k': 36205,
            'migrated_2m': 281,
            'bytes_migrated': 737595392,
            'splits_2m': 384,
            'splits_1g': 0,
            'collapses_2m': 0,
            'replicated_pages': 266,
            'bytes_replicated': 3268608,
            'compute_s': '0x1.e99c7bcc2938dp-4',
            'n_notes': 1,
        },
    },
    'reactive-only': {
        'runtime_s': '0x1.713b07970975dp+2',
        'daemon_time': '0x1.e25b77c3d3c69p-1',
        'fingerprint': '2b7c55ca1bbeda6ea7a0d1e3cf36242af38cdd4bf046a85055fb7fd3c5130429',
        'actions': {
            'migrated_4k': 71126,
            'migrated_2m': 0,
            'bytes_migrated': 291332096,
            'splits_2m': 384,
            'splits_1g': 0,
            'collapses_2m': 0,
            'replicated_pages': 299,
            'bytes_replicated': 3674112,
            'compute_s': '0x1.ac026cc1ca3a4p-4',
            'n_notes': 0,
        },
    },
    'conservative-only': {
        'runtime_s': '0x1.41d5b4eeaba5dp+2',
        'daemon_time': '0x1.2cd425b1a6fb9p+0',
        'fingerprint': '72a80982ce2b52fac547c43112a6f7a05a69cb92076b5ad187c844ec81cbb6ad',
        'actions': {
            'migrated_4k': 19799,
            'migrated_2m': 274,
            'bytes_migrated': 655716352,
            'splits_2m': 0,
            'splits_1g': 0,
            'collapses_2m': 0,
            'replicated_pages': 245,
            'bytes_replicated': 3010560,
            'compute_s': '0x1.87b06309ba93fp-5',
            'n_notes': 1,
        },
    },
    'carrefour-lp-lwp': {
        'runtime_s': '0x1.50591f3108ec9p+2',
        'daemon_time': '0x1.6264aaefe6794p+0',
        'fingerprint': 'a656cb7af6990cfeb392a72e5c9dcc1bbb56d4fd41dd7bb99a3dc93a12859669',
        'actions': {
            'migrated_4k': 44376,
            'migrated_2m': 255,
            'bytes_migrated': 716537856,
            'splits_2m': 384,
            'splits_1g': 0,
            'collapses_2m': 0,
            'replicated_pages': 486,
            'bytes_replicated': 5971968,
            'compute_s': '0x1.2dfd694ccab3fp-3',
            'n_notes': 2,
        },
    },
    'autonuma': {
        'runtime_s': '0x1.49bcafe1aa87bp+2',
        'daemon_time': '0x1.8534c97d90632p-2',
        'fingerprint': '7e1b6b84d12fd90f3f0d87aa486b7a704deeaac72b3bac6ab82493dadfe765ca',
        'actions': {
            'migrated_4k': 0,
            'migrated_2m': 243,
            'bytes_migrated': 509607936,
            'splits_2m': 0,
            'splits_1g': 0,
            'collapses_2m': 0,
            'replicated_pages': 0,
            'bytes_replicated': 0,
            'compute_s': '0x1.25c44a474beeep-2',
            'n_notes': 0,
        },
    },
    'autonuma-4k': {
        'runtime_s': '0x1.6ce1855e7bb62p+2',
        'daemon_time': '0x1.3957d58afea4ap-2',
        'fingerprint': '3fb1f441639fb54d95a65d781a61bfda7792ba54f73e19d237cadcec8604d134',
        'actions': {
            'migrated_4k': 4873,
            'migrated_2m': 0,
            'bytes_migrated': 19959808,
            'splits_2m': 0,
            'splits_1g': 0,
            'collapses_2m': 0,
            'replicated_pages': 0,
            'bytes_replicated': 0,
            'compute_s': '0x1.133a548fa44d5p-2',
            'n_notes': 0,
        },
    },
    'interleave-4k': {
        'runtime_s': '0x1.767be86fc2badp+2',
        'daemon_time': '0x0.0p+0',
        'fingerprint': '8134ce6e733a91898c2974794d47000855f215211752ea207c732eef97d8ec29',
        'actions': {
            'migrated_4k': 0,
            'migrated_2m': 0,
            'bytes_migrated': 0,
            'splits_2m': 0,
            'splits_1g': 0,
            'collapses_2m': 0,
            'replicated_pages': 0,
            'bytes_replicated': 0,
            'compute_s': '0x0.0p+0',
            'n_notes': 0,
        },
    },
    'interleave-thp': {
        'runtime_s': '0x1.2c77de4df755dp+2',
        'daemon_time': '0x0.0p+0',
        'fingerprint': '8526ed2c455ecb9b95ff427564b31b511b37a679449ef0601b77a5cdd2dae9fd',
        'actions': {
            'migrated_4k': 0,
            'migrated_2m': 0,
            'bytes_migrated': 0,
            'splits_2m': 0,
            'splits_1g': 0,
            'collapses_2m': 0,
            'replicated_pages': 0,
            'bytes_replicated': 0,
            'compute_s': '0x0.0p+0',
            'n_notes': 0,
        },
    },
    'pt-remote': {
        'runtime_s': '0x1.9cc5e7debd40ap+2',
        'daemon_time': '0x0.0p+0',
        'fingerprint': '7a7e330e4980a7ca4b2b96259dabf7656cdaeef08c3796bd27671434dfd21a8e',
        'actions': {
            'migrated_4k': 0,
            'migrated_2m': 0,
            'bytes_migrated': 0,
            'splits_2m': 0,
            'splits_1g': 0,
            'collapses_2m': 0,
            'replicated_pages': 0,
            'bytes_replicated': 0,
            'compute_s': '0x0.0p+0',
            'n_notes': 0,
        },
    },
    'pressure-reclaim': {
        # Solo SSCA.20 on machine A never crosses the low watermark, so
        # the policy's matrix entry pins the do-nothing fast path; the
        # reclaim behaviour itself is pinned by the scenario goldens.
        'runtime_s': '0x1.497f7a8b08110p+2',
        'daemon_time': '0x0.0p+0',
        'fingerprint': 'd484cfe240a0c0ae6387d61109bdbe48b7c3ee3e7a4e8d68e274c73b49e87031',
        'actions': {
            'migrated_4k': 0,
            'migrated_2m': 0,
            'bytes_migrated': 0,
            'splits_2m': 0,
            'splits_1g': 0,
            'collapses_2m': 0,
            'replicated_pages': 0,
            'bytes_replicated': 0,
            'compute_s': '0x0.0p+0',
            'n_notes': 0,
        },
    },
    'replication': {
        'runtime_s': '0x1.570ddb34ecf81p+2',
        'daemon_time': '0x1.807408da51ed2p-16',
        'fingerprint': '105664ec09ce596e1d75fcd962c9fe513b9eb18aa16641f71a95a5f6e7a975a5',
        'actions': {
            'migrated_4k': 0,
            'migrated_2m': 0,
            'bytes_migrated': 0,
            'splits_2m': 0,
            'splits_1g': 0,
            'collapses_2m': 0,
            'replicated_pages': 3,
            'bytes_replicated': 12288,
            'compute_s': '0x0.0p+0',
            'n_notes': 0,
        },
    },
}

MATRIX_WORKLOAD, MATRIX_MACHINE = "SSCA.20", "A"


def _observe_actions(result) -> dict:
    return {
        "migrated_4k": sum(s.migrated_4k for _, s in result.action_log),
        "migrated_2m": sum(s.migrated_2m for _, s in result.action_log),
        "bytes_migrated": sum(
            s.bytes_migrated for _, s in result.action_log
        ),
        "splits_2m": sum(s.splits_2m for _, s in result.action_log),
        "splits_1g": sum(s.splits_1g for _, s in result.action_log),
        "collapses_2m": sum(s.collapses_2m for _, s in result.action_log),
        "replicated_pages": sum(
            s.replicated_pages for _, s in result.action_log
        ),
        "bytes_replicated": sum(
            s.bytes_replicated for _, s in result.action_log
        ),
        "compute_s": float(
            sum(s.compute_s for _, s in result.action_log)
        ).hex(),
        "n_notes": sum(len(s.notes) for _, s in result.action_log),
    }


def test_matrix_covers_whole_registry():
    from repro.experiments.configs import POLICIES

    assert set(POLICY_MATRIX) == set(POLICIES)


@pytest.mark.parametrize("policy", sorted(POLICY_MATRIX))
def test_policy_matrix_decision_equivalence(policy, quick_settings):
    golden = POLICY_MATRIX[policy]
    result = run_benchmark(
        MATRIX_WORKLOAD, MATRIX_MACHINE, policy, quick_settings
    )
    assert result.runtime_s.hex() == golden["runtime_s"]
    assert (
        result.bank.total("daemon_time_s").hex() == golden["daemon_time"]
    )
    assert _observe_actions(result) == golden["actions"]


@pytest.mark.parametrize("policy", sorted(POLICY_MATRIX))
def test_policy_matrix_fingerprints_pinned(policy, quick_settings):
    """The persistent-cache key is part of the contract: refactors that
    accidentally change ``SimConfig`` hashing (e.g. by letting the
    ``trace`` flag leak into the key) would silently orphan every
    cached result."""
    fp = quick_settings.fingerprint(
        RunSpec(MATRIX_WORKLOAD, f"machine-{MATRIX_MACHINE}", policy)
    )
    assert fp == POLICY_MATRIX[policy]["fingerprint"]


# --- Goldens move only with a version bump -----------------------------
#
# ``repro.__version__`` stamps every persistent cache key, so a model
# change that re-pins the goldens above but keeps the version would
# serve stale results from ``~/.cache/repro``.  One digest per version:
# re-pinning GOLDENS or POLICY_MATRIX means bumping ``__version__`` and
# adding its digest here.
GOLDEN_DIGESTS = {
    "1.1.0": "6eb1ed135b90c96235f3f37cbbcf96725ee4f049a61364ba1e2066ad030c4e5b",
}


def golden_digest() -> str:
    payload = {
        "goldens": {repr(key): value for key, value in GOLDENS.items()},
        "policy_matrix": POLICY_MATRIX,
    }
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_goldens_move_only_with_a_version_bump():
    from repro import __version__

    digest = golden_digest()
    assert GOLDEN_DIGESTS.get(__version__) == digest, (
        f"GOLDENS/POLICY_MATRIX digest {digest} is not pinned for version "
        f"{__version__}: a model change that moves the goldens must bump "
        "repro.__version__ (the persistent cache stamp) and pin this "
        "digest for the new version in GOLDEN_DIGESTS"
    )
