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
import pathlib

import pytest

from repro.experiments.runner import (
    RunSpec,
    execute_run,
    fingerprints,
    run_benchmark,
)

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
def test_vectorized_engine_matches_pre_change_goldens(case, quick_config):
    workload, machine, policy, backing_1g = case
    result = run_benchmark(
        workload, machine, policy, quick_config, backing_1g=backing_1g
    )
    assert _observe(result) == GOLDENS[case]


def test_engine_deterministic_across_repeats(quick_config):
    spec = RunSpec("Kmeans", "A", "thp")
    a = execute_run(spec, quick_config)
    b = execute_run(spec, quick_config)
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
        'fingerprint': 'd11395c4e48cecfb292119220b0d2650f1054aca240553fa6a856eb8390c29cf',
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
        'fingerprint': 'f1b6f9c52bfee184f01938f73c06af644563bde30655c84f76518424be2e7d2d',
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
        'fingerprint': '456265b20c5be75415e516836315c20e112e938a061312b665c7ea3cf380aaf5',
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
        'fingerprint': '4b8f114505d005bfdd27de2446661d3cbd2b040a0064de23754a300d54dd22e8',
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
        'fingerprint': '8512d0772cbc1995b951cbccfeca4885c7c6770b7dc11ae65badac067fb99edd',
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
        'fingerprint': '288b7090ce53e3b688039af68f3e6cd9355971895e4ca4d182854bb8f4265521',
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
        'fingerprint': 'c9ed8fb5df129c2b5e4553e61345b3182af2a66ecb5296604cf3b91b348f7110',
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
        'fingerprint': '80bc9edb1a37ad5a72ceb6969b889d37825efad8c102b7b1b25d47021ab3137a',
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
        'fingerprint': '6a9431451ed14af07a3b0648a6f2252cf868840bbfe7b05fbe56ac0a7cca87c1',
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
        'fingerprint': '46687c083215052ea8978aefb2f6696ab766ff31f155033856e369ca7553eeba',
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
        'fingerprint': '3dfa19cb037c213e53c10c684325546c265b473cc6e349ab165b6e61d9d8d8e9',
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
        'fingerprint': 'fd17efab6d4d474efc72341c3d3fc911e285f60080508786adc80ead96a6f425',
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
        'fingerprint': '493d2ba5c5856a7aed7a7fbb37c41bad9c531828c070d10c67d10331974ef7f9',
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
        'fingerprint': '73bb3857518309796efba347c90b1772fff18c7fe8e6dbf2c89dac0c4280e867',
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
        'fingerprint': 'b486b73266eded73d696dca0c6305aa89426a7c8e4dbf81cd288e1199d572956',
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
def test_policy_matrix_decision_equivalence(policy, quick_config):
    golden = POLICY_MATRIX[policy]
    result = run_benchmark(
        MATRIX_WORKLOAD, MATRIX_MACHINE, policy, quick_config
    )
    assert result.runtime_s.hex() == golden["runtime_s"]
    assert (
        result.bank.total("daemon_time_s").hex() == golden["daemon_time"]
    )
    assert _observe_actions(result) == golden["actions"]


@pytest.mark.parametrize("policy", sorted(POLICY_MATRIX))
def test_policy_matrix_fingerprints_pinned(policy, quick_config):
    """The persistent-cache key is part of the contract: refactors that
    accidentally change ``SimConfig`` hashing (e.g. by letting the
    ``trace`` flag leak into the key) would silently orphan every
    cached result."""
    spec = RunSpec(MATRIX_WORKLOAD, f"machine-{MATRIX_MACHINE}", policy)
    fp = fingerprints([spec], quick_config)[spec]
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
    # The key became one encoding of a five-field config: only the
    # matrix's fingerprints moved.
    "1.2.0": "5e8c0a24ab39a207aee0327964befc8413dbfc23394b3470dce17af80cd2bca0",
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


# --- Artifact outputs move only with a version bump --------------------
#
# ``benchmarks/output/`` holds the ``--quick`` stdout of every artifact
# (CI regenerates all of them and diffs the tree).  An artifact can move
# while every golden above holds, and would then be served stale from
# the result cache, so its outputs are pinned per version too.
ROOT = pathlib.Path(__file__).resolve().parents[2]
ARTIFACT_DIR = ROOT / "benchmarks" / "output"

ARTIFACT_DIGESTS = {
    "1.1.0": "1bf49044eff18a9e4d713616828354c6ac44bb2a1ce6bb160c4ccc6a0cb95164",
    "1.2.0": "1bf49044eff18a9e4d713616828354c6ac44bb2a1ce6bb160c4ccc6a0cb95164",
}


def artifact_digest() -> str:
    """SHA-256 over the output files' sorted names and bytes."""
    digest = hashlib.sha256()
    for path in sorted(ARTIFACT_DIR.glob("*.txt")):
        data = path.read_bytes()
        digest.update(f"{path.name}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def test_artifact_outputs_move_only_with_a_version_bump():
    from repro import __version__
    from repro.experiments.experiments import EXPERIMENTS

    assert {p.stem for p in ARTIFACT_DIR.glob("*.txt")} == set(EXPERIMENTS)
    digest = artifact_digest()
    assert ARTIFACT_DIGESTS.get(__version__) == digest, (
        f"benchmarks/output/ digest {digest} is not pinned for version "
        f"{__version__}: an artifact whose output moves must bump "
        "repro.__version__ and pin this digest for the new version in "
        "ARTIFACT_DIGESTS"
    )


def test_the_package_version_is_the_cache_stamp():
    """``pyproject.toml`` and ``repro.__version__`` name one version."""
    from repro import __version__

    text = (ROOT / "pyproject.toml").read_text()
    assert f'\nversion = "{__version__}"\n' in text
