"""Surrogate-as-a-service: the async prediction server.

`PredictionServer` ties the three serve primitives together into the
request path::

    submit(space, device, encoding, config)
      └─ LRUCache       ── hit ───────────────► resolved future
         └─ MicroBatcher ── flush ─► one encode_batch + one predict
                                       on the registry's current model

A flush snapshots the registry entry **once**, so every response in a
micro-batch comes from exactly one model version; a hot-swap lands
between batches, never inside one.  Within a batch, duplicate configs
(by `ArchConfig.cache_key()`) are encoded and predicted once and fanned
back out.  Each key's cache stores the predicted latency *together with
the model version and batch sequence* that produced it, so cached
responses carry exactly the same provenance as computed ones.  Swapping
a key replaces its cache wholesale — the invalidation is the same
pointer flip the registry itself uses.

The in-process API is the product (`submit` / `predict` /
`predict_many`); `start_tcp` adds a stdlib-asyncio JSON-lines front end
(one request object per line, ``id`` echoed back) plus a background
`ModelRegistry.poll` loop so freshly retrained surrogates saved over the
watched files go live without a restart.  ``python -m repro.serve`` is
the command-line wrapper around exactly this.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, List, NamedTuple, Optional, Sequence

from ..archspace.config import ArchConfig
from ..archspace.spaces import SpaceSpec, space_by_name
from ..encodings import encoder_for
from ..utils.lru import LRUCache
from .batcher import MicroBatcher
from .registry import ModelEntry, ModelRegistry, ServeKey

__all__ = [
    "CachedPrediction",
    "PredictionResult",
    "PredictionServer",
    "request_lines",
]


class CachedPrediction(NamedTuple):
    """A memoized prediction plus the provenance of the flush that made it."""

    latency_s: float
    model_version: int
    batch_seq: int


class PredictionResult(NamedTuple):
    """One answered query, with full provenance of how it was answered.

    A `NamedTuple` rather than a dataclass: the server mints one per
    request on the hot path, and tuple construction is several times
    cheaper than a frozen dataclass's per-field ``object.__setattr__``.
    """

    latency_s: float
    model_version: int
    batch_seq: int
    cached: bool

    def to_dict(self) -> dict:
        return {
            "latency_s": self.latency_s,
            "model_version": self.model_version,
            "batch_seq": self.batch_seq,
            "cached": self.cached,
        }


class PredictionServer:
    """Async micro-batching prediction service over a `ModelRegistry`."""

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        *,
        max_batch: int = 256,
        max_wait_s: float = 0.002,
        cache_size: int = 4096,
    ):
        if cache_size < 0:
            raise ValueError("cache_size must be >= 0")
        self.registry = registry if registry is not None else ModelRegistry()
        self.cache_size = int(cache_size)
        self._batcher = MicroBatcher(
            self._flush, max_batch=max_batch, max_wait_s=max_wait_s
        )
        self._caches: Dict[ServeKey, LRUCache] = {}
        self._specs: Dict[str, SpaceSpec] = {}
        self._batch_seq = 0
        self.requests = 0
        self.cache_hits = 0
        self.registry.subscribe(self._on_model_change)

    # ------------------------------------------------------------------ #
    # The request path
    # ------------------------------------------------------------------ #

    def submit(
        self, space: str, device: str, encoding: str, config: ArchConfig
    ) -> "asyncio.Future[PredictionResult]":
        """The hot entry point: returns a future, never blocks.

        Cache hits resolve immediately; misses join the key's pending
        micro-batch.  Unknown keys fail here, synchronously, with the
        registry's error — not inside somebody else's batch.
        """
        key = ServeKey(space, device, encoding)
        cache = self._cache_for(key)
        self.requests += 1
        # A disabled cache (maxsize=0) never hits: skip the key hashing.
        hit = cache.get(config.cache_key()) if cache.maxsize else None
        if hit is None:
            return self._batcher.submit(key, config)
        self.cache_hits += 1
        future = asyncio.get_running_loop().create_future()
        future.set_result(
            PredictionResult(
                latency_s=hit.latency_s,
                model_version=hit.model_version,
                batch_seq=hit.batch_seq,
                cached=True,
            )
        )
        return future

    async def predict(
        self, space: str, device: str, encoding: str, config: ArchConfig
    ) -> PredictionResult:
        """Await one prediction (sugar over `submit`)."""
        return await self.submit(space, device, encoding, config)

    async def predict_many(
        self,
        space: str,
        device: str,
        encoding: str,
        configs: Sequence[ArchConfig],
    ) -> List[PredictionResult]:
        """Submit a whole sequence concurrently and await all results.

        The bulk twin of `submit`, tuned for throughput two ways: the
        key/registry/cache resolution happens once for the whole
        sequence instead of per request, and the futures are awaited in
        order rather than ``gather``-ed — full batches flush inline
        during the submit loop, so most futures are already resolved
        here, and awaiting a done future is a constant-time check while
        ``gather`` would register a done callback on every future and
        pay a ``call_soon`` loop turn per request to deliver each
        result.
        """
        key = ServeKey(space, device, encoding)
        cache = self._cache_for(key)
        batcher_submit = self._batcher.submit
        use_cache = cache.maxsize > 0
        out: List[object] = []
        n = 0
        for config in configs:
            n += 1
            hit = cache.get(config.cache_key()) if use_cache else None
            if hit is None:
                out.append(batcher_submit(key, config))
            else:
                self.cache_hits += 1
                out.append(
                    PredictionResult(
                        hit.latency_s, hit.model_version, hit.batch_seq, True
                    )
                )
        self.requests += n
        return [
            (await item) if isinstance(item, asyncio.Future) else item
            for item in out
        ]

    def drain(self) -> None:
        """Flush every pending micro-batch now (shutdown path)."""
        self._batcher.flush()

    # ------------------------------------------------------------------ #
    # Batch execution
    # ------------------------------------------------------------------ #

    def _cache_for(self, key: ServeKey) -> LRUCache:
        """The key's prediction cache, validating the key on first sight."""
        cache = self._caches.get(key)
        if cache is None:
            self.registry.get(key)  # raises the informative KeyError
            self._spec_for(key.space)  # and unknown spaces fail here too
            cache = self._caches[key] = LRUCache(self.cache_size)
        return cache

    def _spec_for(self, space: str) -> SpaceSpec:
        spec = self._specs.get(space)
        if spec is None:
            spec = self._specs[space] = space_by_name(space)
        return spec

    def _flush(
        self, key: ServeKey, configs: Sequence[ArchConfig]
    ) -> List[PredictionResult]:
        # One snapshot: the entire batch is answered by this entry, even
        # if a hot-swap rebinds the key while we are predicting.
        entry = self.registry.get(key)
        spec = self._spec_for(key.space)
        encoder = encoder_for(key.encoding, spec)

        cache_keys = [config.cache_key() for config in configs]
        row_of: Dict[tuple, int] = {}
        for ck in cache_keys:
            if ck not in row_of:
                row_of[ck] = len(row_of)
        if len(row_of) == len(cache_keys):
            unique: Sequence[ArchConfig] = configs  # the common case
        else:
            seen = set()
            unique = [
                config
                for config, ck in zip(configs, cache_keys)
                if not (ck in seen or seen.add(ck))
            ]

        X = encoder.encode_batch(unique, spec)
        # .tolist() converts to Python floats in one C pass; per-element
        # ``float(y[i])`` would pay numpy scalar indexing per request.
        values = entry.predictor.predict(X).tolist()

        self._batch_seq += 1
        seq = self._batch_seq
        version = entry.version
        cache = self._caches[key]
        if cache.maxsize:
            for ck, row in row_of.items():
                cache.put(ck, CachedPrediction(values[row], version, seq))
        if len(row_of) == len(cache_keys):  # no duplicates: aligned 1:1
            return [
                PredictionResult(value, version, seq, False) for value in values
            ]
        return [
            PredictionResult(values[row_of[ck]], version, seq, False)
            for ck in cache_keys
        ]

    def _on_model_change(self, key: ServeKey, entry: ModelEntry) -> None:
        # Fresh model, fresh cache: stale predictions must not outlive a
        # swap.  Replacing the cache object is itself an atomic rebind.
        if key in self._caches:
            self._caches[key] = LRUCache(self.cache_size)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def stats(self) -> dict:
        """Counters for benchmarks, tests, and the TCP ``stats`` op."""
        batcher = self._batcher
        return {
            "requests": self.requests,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": (
                self.cache_hits / self.requests if self.requests else 0.0
            ),
            "batches": batcher.batches,
            "items_flushed": batcher.items_flushed,
            "mean_batch": (
                batcher.items_flushed / batcher.batches if batcher.batches else 0.0
            ),
            "largest_batch": batcher.largest_batch,
            "pending": batcher.pending_count,
            "swaps": self.registry.swaps,
            "models": self.registry.describe(),
        }

    # ------------------------------------------------------------------ #
    # JSON-lines TCP front end
    # ------------------------------------------------------------------ #

    async def start_tcp(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> "asyncio.base_events.Server":
        """Listen for JSON-lines clients; returns the asyncio server.

        Request: ``{"id": ..., "space": ..., "device": ..., "encoding":
        ..., "config": {...}}`` (one per line).  Response mirrors ``id``
        and adds the `PredictionResult` fields, or ``{"id", "error"}``.
        ``{"op": "stats"}`` and ``{"op": "models"}`` answer from the
        counters and the registry.
        """
        return await asyncio.start_server(self._handle_client, host, port)

    def start_polling(self, interval_s: float) -> "asyncio.Task":
        """Background task: `ModelRegistry.poll` every ``interval_s``."""

        async def poll_loop() -> None:
            while True:
                await asyncio.sleep(interval_s)
                self.registry.poll()

        return asyncio.get_running_loop().create_task(poll_loop())

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()

        async def respond(payload: dict) -> None:
            try:
                async with write_lock:
                    writer.write(json.dumps(payload).encode() + b"\n")
                    await writer.drain()
            except (ConnectionError, OSError):
                pass  # client went away; its replies go with it

        async def answer(request: dict) -> None:
            reply = {"id": request.get("id")}
            try:
                op = request.get("op", "predict")
                if op == "stats":
                    reply.update(self.stats())
                elif op == "models":
                    reply["models"] = self.registry.describe()
                elif op == "predict":
                    result = await self.predict(
                        str(request["space"]),
                        str(request["device"]),
                        str(request["encoding"]),
                        ArchConfig.from_dict(request["config"]),
                    )
                    reply.update(result.to_dict())
                else:
                    raise ValueError(f"unknown op {op!r}")
            except Exception as exc:  # per-request isolation
                reply["error"] = f"{type(exc).__name__}: {exc}"
            await respond(reply)

        tasks: List[asyncio.Task] = []
        try:
            async for line in reader:
                line = line.strip()
                if not line:
                    continue
                try:
                    request = json.loads(line)
                except json.JSONDecodeError as exc:
                    await respond({"id": None, "error": f"bad JSON: {exc}"})
                    continue
                tasks.append(asyncio.ensure_future(answer(request)))
            if tasks:  # client done sending; flush its in-flight answers
                await asyncio.gather(*tasks, return_exceptions=True)
        except asyncio.CancelledError:
            # Server/loop shutdown cancels handlers mid-read.  Swallow the
            # cancellation and finish normally: asyncio's stream-protocol
            # completion callback logs any handler task that ends in the
            # cancelled state, and there is nothing left to salvage here.
            for task in tasks:
                task.cancel()
            if tasks:
                await asyncio.wait(tasks)
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass  # pragma: no cover - teardown race


async def request_lines(
    host: str, port: int, requests: Sequence[dict]
) -> List[dict]:
    """Minimal JSON-lines client: send ``requests``, gather the replies.

    Replies are returned in arrival order; callers match them to their
    requests via the echoed ``id``.  Used by the tests, the README
    quick-start, and anyone who wants to poke a server from a script.
    """
    reader, writer = await asyncio.open_connection(host, port)
    try:
        for request in requests:
            writer.write(json.dumps(request).encode() + b"\n")
        await writer.drain()
        replies = []
        for _ in requests:
            line = await reader.readline()
            if not line:
                raise ConnectionError("server closed before answering")
            replies.append(json.loads(line))
        return replies
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass
