"""Network builders and cost analysis: monotonicity and determinism."""

import pytest

from repro.network import builders

from repro import (
    ArchConfig,
    BlockConfig,
    RandomSampler,
    build_network,
    num_kernels,
    space_by_name,
    total_flops,
    total_params,
    total_traffic_bytes,
    working_set_bytes,
    SPACE_NAMES,
)


@pytest.mark.parametrize("family", SPACE_NAMES)
def test_build_produces_positive_costs(family):
    spec = space_by_name(family)
    net = build_network(RandomSampler(spec, rng=0).sample())
    assert net.family == family
    assert len(net) > 0
    assert total_flops(net) > 0
    assert total_params(net) > 0
    assert total_traffic_bytes(net) > 0
    assert working_set_bytes(net) > 0
    assert num_kernels(net) == len(net.layers)


@pytest.mark.parametrize("family", SPACE_NAMES)
def test_builder_is_deterministic(family):
    spec = space_by_name(family)
    config = RandomSampler(spec, rng=1).sample()
    assert build_network(config) == build_network(config)


def test_deeper_config_costs_more(resnet_spec):
    shallow = resnet_spec.make_config([1] * 4, [3] * 4, [0.25] * 4)
    deep = resnet_spec.make_config([7] * 4, [3] * 4, [0.25] * 4)
    assert total_flops(build_network(deep)) > total_flops(build_network(shallow))
    assert num_kernels(build_network(deep)) > num_kernels(build_network(shallow))


def test_bigger_kernel_costs_more(resnet_spec):
    small = resnet_spec.make_config([2] * 4, [3] * 4, [0.25] * 4)
    big = resnet_spec.make_config([2] * 4, [7] * 4, [0.25] * 4)
    assert total_flops(build_network(big)) > total_flops(build_network(small))


def test_bigger_expand_costs_more(mobilenetv3_spec):
    small = mobilenetv3_spec.make_config([2] * 4, [5] * 4, [3.0] * 4)
    big = mobilenetv3_spec.make_config([2] * 4, [5] * 4, [6.0] * 4)
    assert total_flops(build_network(big)) > total_flops(build_network(small))


def test_resnet_joint_kernel_expand_interaction(resnet_spec):
    """The k x k conv runs on expand-scaled channels: joint superadditivity.

    The FLOP increase from raising the kernel must itself grow with the
    expand ratio — the interaction FCC preserves and marginal encodings
    lose.
    """

    def flops(k, e):
        return total_flops(build_network(resnet_spec.make_config([2] * 4, [k] * 4, [e] * 4)))

    gain_at_small_expand = flops(7, 0.2) - flops(3, 0.2)
    gain_at_big_expand = flops(7, 0.35) - flops(3, 0.35)
    assert gain_at_big_expand > gain_at_small_expand


def test_unknown_family_raises():
    config = ArchConfig(family="vgg", units=((BlockConfig(3),),))
    with pytest.raises(KeyError):
        build_network(config)


_CONSTRUCTORS = ("_conv", "_pool", "_eltwise", "_concat", "_linear")


@pytest.mark.parametrize("family", SPACE_NAMES)
def test_memoized_lowering_equals_unwrapped_constructors(family, monkeypatch):
    configs = RandomSampler(space_by_name(family), rng=11).sample_batch(12)
    memoized = [build_network(config) for config in configs]
    for name in _CONSTRUCTORS:
        monkeypatch.setattr(builders, name, getattr(builders, name).__wrapped__)
    fresh = [build_network(config) for config in configs]
    monkeypatch.undo()
    assert fresh == memoized
    # The unwrapped constructors allocate a record per call...
    assert all(
        a is not b
        for f, m in zip(fresh, memoized)
        for a, b in zip(f.layers, m.layers)
    )
    # ...while the memo hands out one shared record per distinct layer,
    # within a build, across configs and across repeated builds.
    again = [build_network(config) for config in configs]
    layers = [layer for net in memoized + again for layer in net.layers]
    identities = {}
    for layer in layers:
        identities.setdefault(layer, set()).add(id(layer))
    assert all(len(ids) == 1 for ids in identities.values())
    assert len(identities) < len(layers) // 2
