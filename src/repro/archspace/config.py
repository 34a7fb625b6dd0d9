"""Architecture configurations: concrete points of a supernet space.

The on-disk schema (``format_version: 1``, used by ``repro.data`` and the
cached datasets under ``benchmarks/_cache/``) is::

    {"family": "resnet",
     "units": [[{"kernel_size": 3, "expand_ratio": 0.25}, ...], ...]}

``expand_ratio`` is ``null`` for families without a width-expansion choice
(DenseNet).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Tuple

__all__ = ["BlockConfig", "ArchConfig"]


@dataclass(frozen=True, order=True)
class BlockConfig:
    """One block's choices: kernel size and (optional) expansion ratio."""

    kernel_size: int
    expand_ratio: Optional[float] = None

    def to_dict(self) -> dict:
        return {"kernel_size": self.kernel_size, "expand_ratio": self.expand_ratio}

    @classmethod
    def from_dict(cls, d: dict) -> "BlockConfig":
        expand = d["expand_ratio"]
        return cls(
            kernel_size=int(d["kernel_size"]),
            expand_ratio=None if expand is None else float(expand),
        )


@dataclass(frozen=True)
class ArchConfig:
    """A fully specified architecture: per-unit tuples of `BlockConfig`."""

    family: str
    units: Tuple[Tuple[BlockConfig, ...], ...]

    def __post_init__(self) -> None:
        # Normalise nested sequences to tuples so configs are hashable.
        units = tuple(tuple(blocks) for blocks in self.units)
        object.__setattr__(self, "units", units)
        for blocks in units:
            if len(blocks) == 0:
                raise ValueError("every unit must contain at least one block")
            for block in blocks:
                if not isinstance(block, BlockConfig):
                    raise TypeError(f"expected BlockConfig, got {type(block)!r}")

    @property
    def num_units(self) -> int:
        return len(self.units)

    @property
    def depths(self) -> Tuple[int, ...]:
        """Blocks per unit."""
        return tuple(len(blocks) for blocks in self.units)

    @property
    def total_blocks(self) -> int:
        return sum(self.depths)

    def iter_blocks(self) -> Iterable[Tuple[int, BlockConfig]]:
        """Yield ``(unit_index, block)`` over all blocks in order."""
        for u, blocks in enumerate(self.units):
            for block in blocks:
                yield u, block

    def cache_key(self) -> Tuple:
        """Canonical hashable identity of this architecture.

        A flat tuple of primitives — cheaper to hash and compare than the
        nested dataclass itself — used to key per-config memoization.  Two
        configs have equal cache keys iff they lower to the same network.

        Memoized per instance (configs are immutable): callers on hot
        paths — the simulator's analytical-latency `LRUCache`, the
        server's per-key prediction `LRUCache` and micro-batch dedupe —
        may call this once per request without rebuilding the nested
        tuples each time.
        """
        key = self.__dict__.get("_cache_key")
        if key is None:
            key = (
                self.family,
                tuple(
                    tuple((b.kernel_size, b.expand_ratio) for b in blocks)
                    for blocks in self.units
                ),
            )
            object.__setattr__(self, "_cache_key", key)
        return key

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "units": [[b.to_dict() for b in blocks] for blocks in self.units],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ArchConfig":
        return cls(
            family=str(d["family"]),
            units=tuple(
                tuple(BlockConfig.from_dict(b) for b in blocks) for blocks in d["units"]
            ),
        )
