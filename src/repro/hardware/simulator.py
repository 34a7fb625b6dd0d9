"""The simulated measurement device standing in for physical hardware.

``true_latency`` is the deterministic analytical latency: per-layer
roofline times, a cache-pressure multiplier on memory-bound layers driven
by the *whole model's* working set, and a sub-linear kernel-launch term.
The last two are global, non-additive contributions — precisely what makes
purely additive lookup-table surrogates fail, as the paper reports.

``measure`` wraps it in the measurement-noise model (per-session
thermal/clock factor with occasional throttled sessions, warm-up
transient, multiplicative jitter, sparse positive outliers);
``measure_latency`` applies a `MeasurementProtocol` — by default the
paper's: discard the fastest and slowest 20% of runs, average the middle
60%.

Two structural properties make the measurement hot path cheap:

* The analytical latency of an `ArchConfig` is memoized in a bounded
  `LRUCache` keyed by `ArchConfig.cache_key()`, so the 150 noisy runs of
  one config — and the reference models re-measured every campaign batch
  — pay for the IR lowering and roofline sweep exactly once.  The device
  profile is read-only, so a cached latency can never belong to another
  device.
* The noise model is generated block-wise: `_trace_block` draws each
  config's randomness in the canonical order (session, throttle, jitter,
  outlier positions, outlier heights) and then applies the deterministic
  scaling to the whole ``(n_configs, runs)`` block in a handful of numpy
  operations.  The per-config draw order is preserved, so block results
  are bit-identical to measuring the configs one at a time from the same
  seeded generator — a regression test locks this in.
"""

from __future__ import annotations

from typing import List, Optional, Tuple, Union

import numpy as np

from ..archspace.config import ArchConfig
from ..network.analysis import working_set_bytes
from ..network.builders import build_network
from ..network.ir import Network
from ..profiling.protocol import MeasurementProtocol
from ..utils import ensure_rng
from ..utils.lru import CacheInfo, LRUCache
from .profiles import DeviceProfile, device_by_name
from .roofline import layer_time

__all__ = ["SimulatedDevice"]


class SimulatedDevice:
    """Analytical latency model plus a seeded measurement-noise model."""

    def __init__(
        self,
        profile: Union[DeviceProfile, str],
        seed: "int | np.random.Generator | None" = None,
        cache_size: int = 4096,
    ):
        if isinstance(profile, str):
            profile = device_by_name(profile)
        self._profile = profile
        self.rng = ensure_rng(seed)
        self.analytical_cache = LRUCache(cache_size)

    @property
    def profile(self) -> DeviceProfile:
        """The device being simulated; fixed for the device's lifetime."""
        return self._profile

    # ------------------------------------------------------------------ #
    # Deterministic analytical latency
    # ------------------------------------------------------------------ #

    def _cache_pressure(self, net: Network) -> float:
        """Slowdown multiplier for memory-bound layers (global term)."""
        working_set = working_set_bytes(net)
        if working_set <= self.profile.cache_bytes:
            return 1.0
        overflow = 1.0 - self.profile.cache_bytes / working_set
        return 1.0 + self.profile.cache_penalty * overflow

    def _analytical_latency(self, net: Network) -> float:
        """The full IR sweep: per-layer roofline plus the global terms."""
        pressure = self._cache_pressure(net)
        total = 0.0
        for layer in net.layers:
            seconds, memory_bound = layer_time(layer, self.profile)
            total += seconds * (pressure if memory_bound else 1.0)
        launch = (
            self.profile.launch_overhead_s
            * len(net.layers) ** self.profile.launch_exponent
        )
        return total + launch

    def true_latency(self, target: Union[ArchConfig, Network]) -> float:
        """Noise-free end-to-end latency in seconds.

        `ArchConfig` targets are memoized behind `ArchConfig.cache_key()`;
        a pre-built `Network` bypasses the cache (it has no canonical key
        and callers who lowered it themselves own its lifetime).
        """
        if not isinstance(target, ArchConfig):
            return self._analytical_latency(target)
        key = target.cache_key()
        value = self.analytical_cache.get(key)
        if value is None:
            value = self._analytical_latency(build_network(target))
            self.analytical_cache.put(key, value)
        return value

    def cache_info(self) -> CacheInfo:
        """Hit/miss accounting of the analytical-latency cache."""
        return self.analytical_cache.info()

    # ------------------------------------------------------------------ #
    # Noisy measurement
    # ------------------------------------------------------------------ #

    def _trace_block(
        self, bases: np.ndarray, runs: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Noise-model traces for a block of configs: ``(n, runs)`` seconds.

        Stochastic draws happen per config in the canonical order (session
        factor, throttle coin, jitter, outlier positions, outlier heights)
        so the stream consumed for config ``i`` is exactly what a lone
        ``measure`` call would consume; the deterministic arithmetic —
        session scaling, warm-up transient, outlier application — is then
        applied to the whole block at once.
        """
        p = self.profile
        n = int(bases.shape[0])
        session = np.empty(n)
        jitter = np.empty((n, runs))
        spike_mask = np.zeros((n, runs), dtype=bool)
        spike_boost = np.empty((n, runs))
        for i in range(n):
            factor = float(np.exp(rng.normal(0.0, p.session_sigma)))
            if rng.random() < p.throttle_prob:
                factor *= p.throttle_factor
            session[i] = factor
            jitter[i] = rng.normal(0.0, p.jitter_cv, size=runs)
            spikes = rng.random(runs) < p.outlier_prob
            if spikes.any():
                spike_mask[i] = spikes
                spike_boost[i, spikes] = 1.0 + rng.exponential(
                    p.outlier_scale, size=int(spikes.sum())
                )
        traces = (bases * session)[:, None] * np.exp(jitter)

        # Warm-up transient: geometric decay toward steady state.
        idx = np.arange(min(p.warmup_iters, runs))
        traces[:, : idx.size] *= 1.0 + (p.warmup_factor - 1.0) * 0.5**idx

        if spike_mask.any():
            traces[spike_mask] *= spike_boost[spike_mask]
        return traces

    def measure(
        self,
        target: Union[ArchConfig, Network],
        runs: int = 150,
        rng: "int | np.random.Generator | None" = None,
    ) -> np.ndarray:
        """Raw latency trace of ``runs`` consecutive iterations (seconds)."""
        if runs < 1:
            raise ValueError("runs must be >= 1")
        rng = self.rng if rng is None else ensure_rng(rng)
        base = self.true_latency(target)
        return self._trace_block(np.array([base]), runs, rng)[0]

    def measure_latency(
        self,
        target: Union[ArchConfig, Network],
        runs: int = 150,
        rng: "int | np.random.Generator | None" = None,
        protocol: Optional[MeasurementProtocol] = None,
    ) -> float:
        """Protocol-collapsed latency (default: the paper's trim-20% mean).

        ``protocol`` overrides the whole measurement recipe; when given, its
        ``runs`` takes precedence over the ``runs`` argument.
        """
        if protocol is None:
            protocol = MeasurementProtocol(runs=runs)
        return protocol.measure(self, target, rng=rng)

    def measure_batch(
        self,
        targets: List[Union[ArchConfig, Network]],
        runs: int = 150,
        rng: "int | np.random.Generator | None" = None,
        protocol: Optional[MeasurementProtocol] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Measure many configs from one seeded stream.

        Returns ``(measured, true)`` latency arrays; deterministic given
        the rng state and the order of ``targets``, and bit-identical to
        calling ``measure_latency`` per config on the same stream.  The
        analytical latency of each target is resolved exactly once (via
        the cache for `ArchConfig`, directly for a pre-built `Network`)
        and threaded through to both the noise model and the returned
        ground truth — no target is lowered twice.
        """
        rng = self.rng if rng is None else ensure_rng(rng)
        if protocol is None:
            protocol = MeasurementProtocol(runs=runs)
        bases = np.array([self.true_latency(t) for t in targets], dtype=float)
        traces = self._trace_block(bases, protocol.runs, rng)
        measured = np.array([protocol.trimmed_mean(trace) for trace in traces])
        return measured, bases
