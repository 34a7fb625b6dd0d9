"""Surrogate-as-a-service: serve fitted latency predictors at scale.

The point of fitting a surrogate (the whole ESM pipeline upstream of
here) is that querying it is nearly free compared to measuring a device.
This package turns that into a product:

* `ModelRegistry` — fitted surrogates keyed on (space, device, encoding),
  loaded through the zoo's persistence contract, hot-swappable by an
  atomic pointer flip, reloadable from watched files (`poll`).
* `MicroBatcher` — concurrent requests queue for up to ``max_wait_s`` /
  ``max_batch`` and flush as *one* ``encode_batch`` + one vectorized
  ``predict`` call, amortizing per-request overhead into the numpy paths.
* `PredictionServer` — the composition: a bounded per-key `LRUCache`
  keyed on `ArchConfig.cache_key()` in front of the batcher, so repeat
  queries short-circuit entirely, plus a stdlib-asyncio JSON-lines TCP
  front end (``python -m repro.serve``).

`benchmarks/bench_serve.py` measures the request path: p50/p99 latency,
sustained single-core throughput, and micro-batching speedup over the
one-request-one-predict baseline.
"""

from .batcher import MicroBatcher
from .registry import ModelEntry, ModelRegistry, ServeKey
from .server import (
    CachedPrediction,
    PredictionResult,
    PredictionServer,
    request_lines,
)

__all__ = [
    "MicroBatcher",
    "CachedPrediction",
    "ModelEntry",
    "ModelRegistry",
    "ServeKey",
    "PredictionResult",
    "PredictionServer",
    "request_lines",
]
