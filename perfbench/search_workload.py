"""The ``search`` workload: a surrogate-driven, constrained NSGA-II search.

Set-up measures 300 random resnet configs on the simulated rtx4090 and
fits an MLP on their FCC encodings; that surrogate, wrapped in a
`PredictorOracle`, is the search's only latency source.  One unit of
work is one `EvolutionarySearch.run()` (population 32, 24 generations)
under a binding latency budget with a fresh ``checkpoint_dir``: batched
encode + predict, Pareto ranking, variation and one durable checkpoint
write per generation, and no fit or measurement.  The hypervolume
reference point is fixed here, not taken from the result.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

from common import (
    QUERY_BLOCK,
    QUERY_SLOT,
    Outcome,
    fresh_dir,
    latency_metrics,
    median,
    peak_rss_mb,
    query_block,
    repeat_for,
    traced_pairs,
    unit_metrics,
)

SPACE = "resnet"
DEVICE = "rtx4090"
ENCODING = "fcc"
TRAIN_SIZE = 300
POPULATION = 32
GENERATIONS = 24
LATENCY_BUDGET_S = 0.0007  # binding: roughly a third of random configs fit
HV_REFERENCE = (LATENCY_BUDGET_S, 88.0)  # (latency s, accuracy %): budget, proxy floor


def duplicate_ratio(result) -> float:
    """Oracle evaluations of configs already evaluated, over evaluations."""
    seen = set()
    dupes = 0
    for candidate in result.evaluated:
        key = candidate.config.cache_key()
        dupes += key in seen
        seen.add(key)
    return dupes / len(result.evaluated)


class SearchWorkload:
    def __init__(self, name: str, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.first = None  # the first unit of work, kept to compare the rest

    def setup(self) -> None:
        from repro import (
            MLPPredictor,
            PredictorOracle,
            RandomSampler,
            SearchConstraints,
            SimulatedDevice,
            SyntheticAccuracyProxy,
            encoder_for,
            space_by_name,
        )

        self.spec = space_by_name(SPACE)
        train = RandomSampler(
            self.spec, rng=np.random.default_rng([self.seed, 1])
        ).sample_batch(TRAIN_SIZE)
        device = SimulatedDevice(DEVICE, seed=self.seed)
        measured, _ = device.measure_batch(
            train, runs=30, rng=np.random.default_rng([self.seed, 2])
        )
        encoder = encoder_for(ENCODING, self.spec)
        model = MLPPredictor(epochs=200, seed=self.seed).fit(
            encoder.encode_batch(train, self.spec), measured
        )
        self.oracle = PredictorOracle(model, ENCODING, self.spec)
        self.proxy = SyntheticAccuracyProxy(self.spec, seed=self.seed)
        self.constraints = SearchConstraints(max_latency_s=LATENCY_BUDGET_S)

    def prepare(self) -> None:
        """Benchmark inputs made after set-up: the latency-query configs."""
        from repro import RandomSampler

        self.queries = RandomSampler(
            self.spec, rng=np.random.default_rng([self.seed, QUERY_SLOT])
        ).sample_batch(QUERY_BLOCK)

    def _run_unit(self, i: int):
        from repro import EvolutionarySearch

        search = EvolutionarySearch(
            self.spec,
            self.oracle,
            self.proxy,
            population_size=POPULATION,
            generations=GENERATIONS,
            seed=self.seed,
            constraints=self.constraints,
            checkpoint_dir=fresh_dir(self.workdir / f"search-{i:03d}"),
        )
        result = search.run()
        text = result.to_json()
        if self.first is None:
            self.first = (result, text)  # later runs are compared, then dropped
        else:
            shutil.rmtree(search.checkpoint_dir)
        return text == self.first[1]

    def _check_units(self, units, out: Outcome) -> None:
        if not out.check("units_completed", bool(units), f"{len(units)} runs"):
            return
        out.check(
            "to_json_identical_across_repeats",
            all(u.value for u in units),
            f"over {len(units)} runs",
        )
        result = self.first[0]
        violations = [
            self.constraints.violation(p.config, p.latency_s) for p in result.front
        ]
        out.check(
            "front_feasible",
            result.feasible_evaluations > 0
            and len(result.front_configs) == len(result.front)
            and max(violations) == 0.0,
            f"{len(result.front)} front members, "
            f"{result.feasible_evaluations}/{result.n_evaluations} feasible",
        )

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        blocks = []
        units = repeat_for(
            seconds, self._run_unit, out,
            after=lambda _: blocks.append(query_block(self.oracle.latency, self.queries)),
        )
        self._check_units(units, out)
        if not units:
            return out
        result = self.first[0]
        unit_metrics(units, result.n_evaluations, "oracle evaluations", out)
        latency_metrics(blocks, "single surrogate queries", out)
        out.metric("peak_rss_mb", peak_rss_mb(), "MB")
        out.notes.append(
            f"hypervolume {self.hypervolume(result):.6g} at reference {HV_REFERENCE}"
        )
        return out

    @staticmethod
    def hypervolume(result) -> float:
        return result.front.hypervolume(*HV_REFERENCE)

    def trace(self, tracer) -> Outcome:
        from tracing import by_name, layer_self

        out = Outcome()
        # The first unit is the untraced warm-up: traced bytes must match it.
        traced, overhead = traced_pairs(self._run_unit, tracer, out, pairs=4)
        self._check_units(traced, out)
        if not traced:
            return out
        n = len(traced)
        result = self.first[0]
        names = by_name(tracer.spans)

        def self_s(span):
            return names.get(span, {}).get("self_s", 0.0) / n

        p = "search."
        out.metric(p + "predictors.predict_s", self_s("predictors.predict"), "s")
        out.metric(p + "encodings.encode_s", self_s("encodings.encode"), "s")
        out.metric(p + "encodings.rows", tracer.counts["encodings.encode"] / n, "count")
        out.metric(p + "archspace.variation_s", self_s("archspace.variation"), "s")
        for part in ("rank", "proxy", "constraints", "checkpoint"):
            out.metric(p + f"nas.{part}_s", self_s(f"nas.{part}"), "s")
        out.metric(p + "nas.self_s", self_s("nas.search"), "s")
        out.metric(
            p + "nas.feasible_ratio",
            result.feasible_evaluations / result.n_evaluations,
            "ratio",
        )
        out.metric(p + "nas.duplicate_eval_ratio", duplicate_ratio(result), "ratio")
        out.metric(p + "nas.evaluations", result.n_evaluations, "count")
        out.metric(p + "hypervolume", self.hypervolume(result), "s.%")
        traced_wall = median(u.wall_s for u in traced)
        out.metric(p + "trace.overhead_s", overhead, "s")
        layers = {k: v / n for k, v in layer_self(tracer.spans).items()}
        out.ledger = (traced_wall, layers)
        return out
