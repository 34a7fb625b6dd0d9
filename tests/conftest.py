"""Shared fixtures: Table I specs, a small measured ResNet dataset, and
the shard-read probes of the campaign and fleet tests."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import (
    LatencyDataset,
    LatencySample,
    RandomSampler,
    SimulatedDevice,
    densenet_space,
    mobilenetv3_space,
    resnet_space,
)
from repro.profiling import CampaignStore

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="session")
def resnet_spec():
    return resnet_space()


@pytest.fixture(scope="session")
def mobilenetv3_spec():
    return mobilenetv3_space()


@pytest.fixture(scope="session")
def densenet_spec():
    return densenet_space()


@pytest.fixture(scope="session")
def densenet_fixture_path():
    paths = sorted((REPO_ROOT / "benchmarks" / "_cache").glob("densenet-*.json"))
    assert paths, "committed densenet fixture missing from benchmarks/_cache/"
    return paths[0]


@pytest.fixture(scope="session")
def small_resnet_dataset(resnet_spec):
    """140 seeded ResNet measurements on the simulated RTX 4090.

    Session-scoped: several predictor/metric tests share it to keep the
    suite fast.  Everything downstream of this fixture is deterministic.
    """
    device = SimulatedDevice("rtx4090", seed=5)
    configs = RandomSampler(resnet_spec, rng=5).sample_batch(140)
    measured, true = device.measure_batch(
        configs, runs=15, rng=np.random.default_rng(55)
    )
    return LatencyDataset(
        [
            LatencySample(
                config=c,
                latency_s=float(m),
                device="rtx4090",
                true_latency_s=float(t),
            )
            for c, m, t in zip(configs, measured, true)
        ]
    )


@pytest.fixture
def shard_reads(monkeypatch):
    """The batch indices `CampaignStore.read_shard` is asked for."""
    indices = []
    read_shard = CampaignStore.read_shard

    def counting(store, index):
        indices.append(index)
        return read_shard(store, index)

    monkeypatch.setattr(CampaignStore, "read_shard", counting)
    return indices


@pytest.fixture(scope="session")
def assert_matches_shards():
    """Check that a campaign result is, sample for sample and byte for
    byte, the dataset `LatencyDataset.load` rebuilds from its shards."""

    def check(result, runner):
        on_disk = LatencyDataset()
        for index in range(runner.n_batches):
            if runner.store.has_shard(index):
                on_disk.extend(LatencyDataset.load(runner.store.shard_path(index)))
        assert result.dataset == on_disk
        assert json.dumps(result.dataset.to_dict()) == json.dumps(
            on_disk.to_dict()
        )

    return check
