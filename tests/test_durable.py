"""Tests for `repro.durable`: pinned fingerprints, quarantine, `run_tasks`.

The fingerprint values below are pinned literals.  Every campaign,
search checkpoint and fleet directory on disk stores one of these hashes
in its manifest, so a refactor that changed the JSON separators, the key
order or a payload field would make every existing run directory refuse
to resume — while every behavioural test still passed.
"""

import multiprocessing
import os

import pytest

from repro import (
    CampaignRunner,
    DeviceOracle,
    EvolutionarySearch,
    RandomSampler,
    RandomSearch,
    ReferenceSet,
    SearchConstraints,
    SimulatedDevice,
    SyntheticAccuracyProxy,
    space_by_name,
)
from repro.durable import quarantine, run_tasks
from repro.nas.fleet import SearchFleet

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable on this platform",
)


@pytest.fixture(scope="module")
def harness():
    spec = space_by_name("resnet")
    oracle = DeviceOracle(SimulatedDevice("rtx4090", seed=0))
    return spec, oracle, SyntheticAccuracyProxy(spec, seed=0)


def _campaign(harness, tmp_path):
    spec, _, _ = harness
    return CampaignRunner(
        SimulatedDevice("rtx4090", seed=0),
        RandomSampler(spec, rng=0).sample_batch(4),
        tmp_path,
        ReferenceSet.from_space(spec, k=2, rng=7),
        batch_size=2,
        seed=42,
    )


def _evolutionary(harness, tmp_path):
    return EvolutionarySearch(
        *harness, population_size=6, generations=2, seed=3
    )


def _random(harness, tmp_path):
    return RandomSearch(
        *harness,
        budget=20,
        seed=1,
        constraints=SearchConstraints(max_latency_s=0.0009),
    )


def _fleet(harness, tmp_path):
    return SearchFleet(
        *harness,
        search_params={"population_size": 6, "generations": 2},
        seeds=[3, 1, 2],
    )


@pytest.mark.parametrize(
    "build, expected",
    [
        (
            _campaign,
            "4d687974df8f7a38d2e512c82db54ba669e80d7d7efc4c67ed42fc06a562c61a",
        ),
        (
            _evolutionary,
            "a18f38f8727c0a8a39cfc99fa1e92ced1f7a967725b9cb50c71ff9c19f8ba0dd",
        ),
        (
            _random,
            "c8176b98b23965ca677b600363244d0d6e5bb525843a5f408390469cfe8743a0",
        ),
        (
            _fleet,
            "a9e2ed40d896f80e3fc983a154f2cd0c5133c03f0d36ec185413584f53197d23",
        ),
    ],
    ids=["campaign", "evolutionary", "random", "fleet"],
)
def test_persisted_fingerprints_are_pinned(harness, tmp_path, build, expected):
    assert build(harness, tmp_path).fingerprint() == expected


class TestQuarantine:
    def test_renames_aside_and_never_overwrites(self, tmp_path):
        path = tmp_path / "result.json"
        payloads = ["first", "second", "third"]
        targets = []
        for text in payloads:
            path.write_text(text)
            targets.append(quarantine(path))
        assert not path.exists()
        assert [t.name for t in targets] == [
            "result.json.corrupt",
            "result.json.corrupt1",
            "result.json.corrupt2",
        ]
        assert [t.read_text() for t in targets] == payloads


def _square(x):
    return x * x


def _die(x):
    os._exit(1)


class Recorder:
    """Collects commits and degradations from one `run_tasks` call."""

    def __init__(self):
        self.committed = []
        self.degradations = []

    def commit(self, key, result):
        self.committed.append((key, result))

    def degrade(self, kind, **details):
        self.degradations.append({"kind": kind, **details})


def _run(keys, job_fn, *, workers, mp_context):
    rec = Recorder()
    run_tasks(
        keys,
        lambda key: (job_fn, key),
        _square,
        rec.commit,
        rec.degrade,
        workers=workers,
        mp_context=mp_context,
    )
    return rec


class TestRunTasks:
    def test_single_key_never_starts_a_pool(self):
        rec = _run([5], _die, workers=4, mp_context="no-such-method")
        assert rec.committed == [(5, 25)]
        assert rec.degradations == []

    def test_pool_unavailable_degrades_to_serial(self):
        rec = _run([1, 2, 3], _square, workers=2, mp_context="no-such-method")
        assert rec.committed == [(1, 1), (2, 4), (3, 9)]
        [entry] = rec.degradations
        assert entry["kind"] == "pool_unavailable"
        assert entry["error"].startswith("ValueError: ")
        assert entry["pending"] == [1, 2, 3]
        assert list(entry) == ["kind", "error", "pending"]

    @needs_fork
    def test_broken_pool_reruns_only_uncommitted_keys(self):
        rec = _run([1, 2, 3], _die, workers=2, mp_context="fork")
        # Every key is committed exactly once, by the pool or serially.
        assert sorted(rec.committed) == [(1, 1), (2, 4), (3, 9)]
        [entry] = rec.degradations
        assert list(entry) == [
            "kind",
            "error",
            "completed_before_failure",
            "pending",
        ]
        assert entry["kind"] == "broken_process_pool"
        assert "BrokenProcessPool" in entry["error"]
        assert entry["completed_before_failure"] + len(entry["pending"]) == 3
        assert [k for k, _ in rec.committed[-len(entry["pending"]):]] == (
            entry["pending"]
        )
