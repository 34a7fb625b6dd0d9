"""Timing shims around the public entry points of each ``repro`` layer.

Tracing lives in the benchmark, not in ``src/``: `install` wraps the
listed functions and methods in place (every module that imported a
function by name gets the wrapper too) and returns an undo callable.
Spans are kept in memory as ``(name, start, end, parent, request id)``
and written out as JSONL once the run ends.  The layer of a span is the
first dotted component of its name.

Self time is a span's duration minus the part of it that its child
spans cover; overlapping children (asyncio) are merged before
subtracting, so concurrent children are not counted twice.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

NAME, START, END, PARENT, RID = range(5)

# The public entry points of each layer, as (module, attribute, span name).
# "Class.method" attributes are patched on the class that defines them.
LAYER_ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.loop", "ESMLoop.run", "core.run"),
    ("repro.archspace.sampling", "RandomSampler.sample_batch", "archspace.sample"),
    ("repro.archspace.sampling", "BalancedSampler.sample_counts", "archspace.sample"),
    ("repro.archspace.ops", "mutate", "archspace.variation"),
    ("repro.archspace.ops", "crossover", "archspace.variation"),
    ("repro.network.builders", "build_network", "network.build"),
    ("repro.hardware.simulator", "SimulatedDevice.measure", "hardware.measure"),
    ("repro.hardware.simulator", "SimulatedDevice.measure_batch", "hardware.measure"),
    ("repro.hardware.simulator", "SimulatedDevice.true_latency", "hardware.true_latency"),
    ("repro.hardware.faults", "FaultyDevice.measure", "hardware.measure"),
    ("repro.profiling.campaign", "CampaignRunner.run", "profiling.campaign"),
    ("repro.profiling.storage", "CampaignStore.write_shard", "profiling.store_write"),
    ("repro.profiling.storage", "CampaignStore.save_manifest", "profiling.store_write"),
    ("repro.encodings.encoders", "OneHotEncoding.encode_batch", "encodings.encode"),
    ("repro.encodings.encoders", "FeatureEncoding.encode_batch", "encodings.encode"),
    ("repro.encodings.encoders", "StatisticalEncoding.encode_batch", "encodings.encode"),
    ("repro.encodings.encoders", "FCEncoding.encode_batch", "encodings.encode"),
    ("repro.encodings.encoders", "FCCEncoding.encode_batch", "encodings.encode"),
    ("repro.predictors.oracle", "PredictorOracle.latency_batch", "predictors.oracle"),
    ("repro.metrics", "binwise_accuracy", "metrics.eval"),
    ("repro.metrics", "failing_bins", "metrics.eval"),
    ("repro.data.dataset", "LatencyDataset.save", "data.save"),
    ("repro.nas.search", "EvolutionarySearch.run", "nas.search"),
    ("repro.nas.pareto", "non_dominated_rank", "nas.rank"),
    ("repro.nas.pareto", "constrained_non_dominated_rank", "nas.rank"),
    ("repro.nas.pareto", "crowding_distance", "nas.rank"),
    ("repro.nas.pareto", "ParetoFront.from_points", "nas.rank"),
    ("repro.nas.proxy", "SyntheticAccuracyProxy.accuracy_batch", "nas.proxy"),
    ("repro.nas.constraints", "SearchConstraints.violations", "nas.constraints"),
    ("repro.nas.checkpoint", "SearchCheckpoint.write_step", "nas.checkpoint"),
    ("repro.serve.registry", "ModelRegistry.poll", "serve.registry"),
)

# Work counted at the boundary: rows encoded per ``encode_batch(configs, spec)``.
COUNTERS: Dict[str, Callable] = {"encodings.encode": lambda args: len(args[1])}

# Every predictor class in the zoo gets fit/predict spans.
PREDICTOR_CLASSES = (
    "MLPPredictor",
    "LookupTableSurrogate",
    "RidgePredictor",
    "CARTPredictor",
    "RandomForestPredictor",
    "GradientBoostingPredictor",
    "AdaptiveSwitchingPredictor",
    "TransferPredictor",
)


class Tracer:
    """In-memory span recorder; nesting follows a context variable."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self.request_id: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_request", default=None
        )

    def begin(
        self, name: str, root: bool = False
    ) -> Tuple[int, contextvars.Token]:
        """Open a span under the current one (``root``: under none)."""
        index = len(self.spans)
        parent = None if root else self.current.get()
        self.spans.append(
            [name, self.clock(), None, parent, self.request_id.get()]
        )
        return index, self.current.set(index)

    def end(self, index: int, token: contextvars.Token) -> None:
        self.spans[index][END] = self.clock()
        self.current.reset(token)

    def record(self, name, start, end, rid=None) -> None:
        """Add a top-level span measured elsewhere (e.g. a client request)."""
        self.spans.append([name, start, end, None, rid])

    def wrap(
        self, fn: Callable, name: str, count: Optional[Callable] = None
    ) -> Callable:
        """``fn`` inside a span; ``count(args)`` adds to ``counts[name]``."""
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                index, token = self.begin(name)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self.end(index, token)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                self.counts[name] += count(args)
            index, token = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index, token)

        return traced

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for index, (name, start, end, parent, rid) in enumerate(self.spans):
                row = {"id": index, "name": name, "start": start, "end": end,
                       "parent": parent}
                if rid is not None:
                    row["request_id"] = rid
                fh.write(json.dumps(row) + "\n")


def _resolve(module_name: str, attr: str):
    module = importlib.import_module(module_name)
    if "." in attr:
        cls_name, meth = attr.split(".")
        return getattr(module, cls_name), meth
    return module, attr


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every entry point in a span; returns a function that undoes it."""
    import repro  # noqa: F401  (loads every layer before patching)

    points = list(LAYER_ENTRY_POINTS) + [
        ("repro.predictors", f"{cls}.{meth}", f"predictors.{meth}")
        for cls in PREDICTOR_CLASSES
        for meth in ("fit", "predict")
    ]
    undo: List[Tuple[object, str, object]] = []
    for module_name, attr, span_name in points:
        owner, name = _resolve(module_name, attr)
        if inspect.isclass(owner):
            raw = owner.__dict__.get(name)
            if raw is None:
                continue  # inherited: the defining class is patched instead
            wrapped = tracer.wrap(
                raw.__func__ if isinstance(raw, classmethod) else raw,
                span_name,
                COUNTERS.get(span_name),
            )
            if isinstance(raw, classmethod):
                wrapped = classmethod(wrapped)
            setattr(owner, name, wrapped)
            undo.append((owner, name, raw))
            continue
        original = getattr(owner, name)
        wrapped = tracer.wrap(original, span_name, COUNTERS.get(span_name))
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            if getattr(mod, name, None) is original:
                setattr(mod, name, wrapped)
                undo.append((mod, name, original))

    def uninstall() -> None:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)

    return uninstall


# --------------------------------------------------------------------- #
# Analysis
# --------------------------------------------------------------------- #


def _covered(intervals: List[Tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            p_start, p_end = spans[parent][START], spans[parent][END]
            lo, hi = max(span[START], p_start), min(span[END], p_end)
            if hi > lo:
                children[parent].append((lo, hi))
    return [
        (span[END] - span[START]) - _covered(children.get(i, []))
        for i, span in enumerate(spans)
    ]


def by_name(spans: Sequence[Sequence]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total self time, top-level call count.

    A call is top-level when no enclosing span has the same name (the
    adaptive switcher's member fits nest inside its own fit).
    """
    selfs = self_times(spans)
    out: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "top_calls": 0}
    )
    for i, span in enumerate(spans):
        entry = out[span[NAME]]
        entry["calls"] += 1
        entry["self_s"] += selfs[i]
        parent = span[PARENT]
        while parent is not None and spans[parent][NAME] != span[NAME]:
            parent = spans[parent][PARENT]
        if parent is None:
            entry["top_calls"] += 1
    return dict(out)


def layer_self(spans: Sequence[Sequence]) -> Dict[str, float]:
    """Total self time per layer (first component of the span name)."""
    out: Dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        out[span[NAME].split(".")[0]] += own
    return dict(out)
