"""Lower an `ArchConfig` to the concrete layer IR, per family.

Channel/stride schedules follow the usual published macro-architectures
(224x224 input).  The cost structure the simulator and encodings rely on
falls straight out of the arithmetic:

* ResNet bottleneck: the k x k middle conv runs on ``mid = round(C * e)``
  channels, so its FLOPs scale with ``k^2 * e^2`` — a strong *joint*
  kernel-expand interaction.
* MobileNetV3 MBConv: the two pointwise convs (cost ~ ``e``) dominate and
  the kernel only enters the cheap depthwise conv — a weak interaction.
* DenseNet-BC: one kernel per unit and channel counts that grow across a
  unit, so per-block cost depends on cross-block context.

Layer records are memoized: each constructor (`_conv`, `_pool`, ...) is a
pure function of a name and a few ints, so equal calls return one shared
`Layer`.  That is safe because `Layer` is frozen and `Network` holds a
tuple; lowering the ~160-layer densenet configs of a campaign then costs
a cache lookup per layer instead of a dataclass construction.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List

from ..archspace.config import ArchConfig
from .ir import Layer, Network

__all__ = ["build_network", "BUILDER_FAMILIES"]

_BYTES = 4  # fp32

# One cache per constructor.  50,000 random densenet configs (the widest
# space) lower to ~10.6k distinct conv and ~9.6k distinct concat calls, so
# the bound caps memory without evicting in practice.
_memo = lru_cache(maxsize=16384)


@_memo
def _conv(
    name: str,
    cin: int,
    cout: int,
    k: int,
    spatial_in: int,
    stride: int = 1,
    groups: int = 1,
) -> Layer:
    spatial_out = max(1, spatial_in // stride)
    out_elems = cout * spatial_out * spatial_out
    flops = 2.0 * out_elems * (cin // groups) * k * k
    params = float(cout * (cin // groups) * k * k)
    return Layer(
        name=name,
        kind="dwconv" if groups == cin and cin == cout and groups > 1 else "conv",
        flops=flops,
        params=params,
        input_bytes=float(cin * spatial_in * spatial_in * _BYTES),
        output_bytes=float(out_elems * _BYTES),
        weight_bytes=params * _BYTES,
        out_elems=out_elems,
    )


@_memo
def _pool(name: str, channels: int, spatial_in: int, stride: int = 2) -> Layer:
    spatial_out = max(1, spatial_in // stride)
    out_elems = channels * spatial_out * spatial_out
    return Layer(
        name=name,
        kind="pool",
        flops=float(out_elems * stride * stride),
        params=0.0,
        input_bytes=float(channels * spatial_in * spatial_in * _BYTES),
        output_bytes=float(out_elems * _BYTES),
        weight_bytes=0.0,
        out_elems=out_elems,
    )


@_memo
def _eltwise(name: str, channels: int, spatial: int) -> Layer:
    elems = channels * spatial * spatial
    return Layer(
        name=name,
        kind="eltwise",
        flops=float(elems),
        params=0.0,
        input_bytes=float(2 * elems * _BYTES),
        output_bytes=float(elems * _BYTES),
        weight_bytes=0.0,
        out_elems=elems,
    )


@_memo
def _concat(name: str, cin_a: int, cin_b: int, spatial: int) -> Layer:
    elems = (cin_a + cin_b) * spatial * spatial
    return Layer(
        name=name,
        kind="concat",
        flops=0.0,
        params=0.0,
        input_bytes=float(elems * _BYTES),
        output_bytes=float(elems * _BYTES),
        weight_bytes=0.0,
        out_elems=elems,
    )


@_memo
def _linear(name: str, cin: int, cout: int) -> Layer:
    params = float(cin * cout)
    return Layer(
        name=name,
        kind="linear",
        flops=2.0 * cin * cout,
        params=params,
        input_bytes=float(cin * _BYTES),
        output_bytes=float(cout * _BYTES),
        weight_bytes=params * _BYTES,
        out_elems=cout,
    )


def _build_resnet(config: ArchConfig) -> Network:
    """ResNet with elastic bottleneck blocks (stem -> 4 units -> head)."""
    unit_channels = (256, 512, 1024, 2048)
    unit_strides = (1, 2, 2, 2)
    layers: List[Layer] = [
        _conv("stem.conv", 3, 64, 7, 224, stride=2),
        _pool("stem.pool", 64, 112),
    ]
    cin, spatial = 64, 56
    for u, blocks in enumerate(config.units):
        cout = unit_channels[u]
        for b, block in enumerate(blocks):
            stride = unit_strides[u] if b == 0 else 1
            mid = max(8, int(round(cout * block.expand_ratio)))
            prefix = f"unit{u}.block{b}"
            layers.append(_conv(f"{prefix}.conv1", cin, mid, 1, spatial))
            layers.append(_conv(f"{prefix}.conv2", mid, mid, block.kernel_size, spatial, stride=stride))
            spatial_out = max(1, spatial // stride)
            layers.append(_conv(f"{prefix}.conv3", mid, cout, 1, spatial_out))
            if b == 0 and (stride != 1 or cin != cout):
                layers.append(_conv(f"{prefix}.downsample", cin, cout, 1, spatial, stride=stride))
            layers.append(_eltwise(f"{prefix}.add", cout, spatial_out))
            cin, spatial = cout, spatial_out
    layers.append(_pool("head.avgpool", cin, spatial, stride=spatial))
    layers.append(_linear("head.fc", cin, 1000))
    return Network(family="resnet", layers=tuple(layers))


def _build_mobilenetv3(config: ArchConfig) -> Network:
    """MobileNetV3 with elastic MBConv blocks (stem -> 4 units -> head)."""
    unit_channels = (24, 40, 80, 160)
    unit_strides = (2, 2, 2, 2)
    layers: List[Layer] = [_conv("stem.conv", 3, 16, 3, 224, stride=2)]
    cin, spatial = 16, 112
    for u, blocks in enumerate(config.units):
        cout = unit_channels[u]
        for b, block in enumerate(blocks):
            stride = unit_strides[u] if b == 0 else 1
            hidden = max(8, int(round(cin * block.expand_ratio)))
            prefix = f"unit{u}.block{b}"
            layers.append(_conv(f"{prefix}.expand", cin, hidden, 1, spatial))
            layers.append(
                _conv(f"{prefix}.dwconv", hidden, hidden, block.kernel_size, spatial, stride=stride, groups=hidden)
            )
            spatial_out = max(1, spatial // stride)
            layers.append(_conv(f"{prefix}.project", hidden, cout, 1, spatial_out))
            if stride == 1 and cin == cout:
                layers.append(_eltwise(f"{prefix}.add", cout, spatial_out))
            cin, spatial = cout, spatial_out
    layers.append(_conv("head.conv", cin, 960, 1, spatial))
    layers.append(_pool("head.avgpool", 960, spatial, stride=spatial))
    layers.append(_linear("head.fc", 960, 1000))
    return Network(family="mobilenetv3", layers=tuple(layers))


def _build_densenet(config: ArchConfig) -> Network:
    """DenseNet-BC with elastic dense units (stem -> 5 units -> head)."""
    growth = 32
    unit_spatials = (56, 28, 14, 7, 4)
    layers: List[Layer] = [
        _conv("stem.conv", 3, 64, 7, 224, stride=2),
        _pool("stem.pool", 64, 112),
    ]
    cin = 64
    for u, blocks in enumerate(config.units):
        spatial = unit_spatials[u]
        for b, block in enumerate(blocks):
            prefix = f"unit{u}.block{b}"
            bottleneck = 4 * growth
            layers.append(_conv(f"{prefix}.bottleneck", cin, bottleneck, 1, spatial))
            layers.append(_conv(f"{prefix}.conv", bottleneck, growth, block.kernel_size, spatial))
            layers.append(_concat(f"{prefix}.concat", cin, growth, spatial))
            cin += growth
        if u < len(config.units) - 1:
            cout = cin // 2
            layers.append(_conv(f"transition{u}.conv", cin, cout, 1, spatial))
            layers.append(_pool(f"transition{u}.pool", cout, spatial))
            cin = cout
    layers.append(_pool("head.avgpool", cin, unit_spatials[-1], stride=unit_spatials[-1]))
    layers.append(_linear("head.fc", cin, 1000))
    return Network(family="densenet", layers=tuple(layers))


_BUILDERS = {
    "resnet": _build_resnet,
    "mobilenetv3": _build_mobilenetv3,
    "densenet": _build_densenet,
}

BUILDER_FAMILIES = tuple(_BUILDERS)


def build_network(config: ArchConfig) -> Network:
    """Lower an architecture configuration to its layer IR."""
    try:
        builder = _BUILDERS[config.family]
    except KeyError:
        raise KeyError(
            f"no builder for family {config.family!r}; available: {', '.join(BUILDER_FAMILIES)}"
        ) from None
    return builder(config)
