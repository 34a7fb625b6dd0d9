"""The two ESM-loop workloads: ``esm_fit`` and ``esm_measure``.

One unit of work is one `ESMLoop.run()` to convergence in a fresh run
directory.  ``esm_fit`` makes the adaptive switcher's refits dominate:
resnet / rtx4090 / FCC with ``predictor="as"`` and a 9-run protocol.  Its
first check fails (12 training samples for 36 features) and the
140-sample second check passes, so every seed runs the same two refits:
the 60/40 split keeps both depth bins in the held-out set even when one
bin passed the first check and got no extension samples.
``esm_measure`` makes measurement dominate: densenet / raspberrypi4 at
the paper's 150-run protocol on a `FaultyDevice` (throttled sessions,
transient errors, corrupt traces), with the closed-form ``lut+bias``
predictor, so fitting costs almost nothing.  It converges at the first
check on 400 samples split into 40 QC'd batches.
"""

from __future__ import annotations

import json
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

PARAMS = {
    "esm_fit": dict(
        space="resnet",
        device="rtx4090",
        encoding="fcc",
        predictor="as",
        predictor_params={
            "cv_folds": 3,
            "zoo_params": {
                "mlp": {"epochs": 60},
                "rf": {"n_estimators": 6},
                "gb": {"n_estimators": 20},
            },
        },
        acc_th=93.0,
        n_bins=2,
        train_fraction=0.6,
        initial_size=20,
        extension_size=120,
        max_iterations=4,
        runs=9,
        n_references=2,
        batch_size=20,
    ),
    "esm_measure": dict(
        space="densenet",
        device="raspberrypi4",
        encoding="fcc",
        predictor="lut+bias",
        acc_th=70.0,
        n_bins=3,
        initial_size=400,
        extension_size=100,
        max_iterations=3,
        runs=150,
        n_references=3,
        batch_size=10,
        # At the default 3 retries, 4 faults in a row on one measurement
        # end the loop with a CampaignError on some seeds (706); 8 makes
        # that vanishingly rare and changes nothing on the other seeds.
        max_transient_retries=8,
    ),
}
FAULTS = dict(throttle_prob=0.15, error_prob=0.02, corrupt_prob=0.02)
ARTIFACTS = ("report.json", "dataset.json")


def _no_sleep(_seconds: float) -> None:
    """QC back-off against a simulated device need not wait in real time."""


def device_time_s(run_dir: Path) -> float:
    """Simulated device seconds a finished run spent measuring.

    The paper's Fig. 4 cost, rebuilt from the campaign directories:
    reference enrolment, then for every batch each attempt re-executes
    the batch's configs and references for ``runs`` timed runs, and each
    transient retry re-executes one measurement.  Attempts that failed QC
    are priced at the final attempt's latencies, which the shard keeps.
    """
    total = 0.0
    for campaign in sorted(run_dir.glob("campaign-*")):
        manifest = json.loads((campaign / "manifest.json").read_text())
        runs = manifest["protocol"]["runs"]
        total += runs * sum(manifest["references"]["baselines"])
        for batch in manifest["batches"].values():
            shard = json.loads((campaign / batch["shard"]).read_text())
            latencies = [s["latency_s"] for s in shard["samples"]]
            attempts = batch["attempts"]
            retries = sum(a["transient_retries"] for a in attempts)
            total += runs * (
                len(attempts) * sum(latencies)
                + retries * sum(latencies) / len(latencies)
            )
    return total


def qc_counts(run_dir: Path) -> dict:
    attempts = passed = retries = 0
    for manifest_path in sorted(run_dir.glob("campaign-*/manifest.json")):
        for batch in json.loads(manifest_path.read_text())["batches"].values():
            for attempt in batch["attempts"]:
                attempts += 1
                passed += bool(attempt["qc_passed"])
                retries += attempt["transient_retries"]
    return {"attempts": attempts, "passed": passed, "transient_retries": retries}


class ESMWorkload:
    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.first = None  # the first unit of work, kept to compare the rest

    def setup(self) -> None:
        from repro import ESMConfig

        self.config = ESMConfig(seed=self.seed, **PARAMS[self.name])

    def prepare(self) -> None:
        """Benchmark inputs made after set-up: the latency-query configs."""
        from repro import RandomSampler, space_by_name

        self.queries = RandomSampler(
            space_by_name(self.config.space),
            rng=np.random.default_rng([self.seed, QUERY_SLOT]),
        ).sample_batch(QUERY_BLOCK)

    def _device(self):
        if self.name != "esm_measure":
            return None  # the loop builds the config's SimulatedDevice
        from repro import FaultPlan, FaultyDevice, SimulatedDevice

        return FaultyDevice(
            SimulatedDevice(self.config.device, seed=self.seed),
            FaultPlan(**FAULTS),
            seed=self.seed,
        )

    def _loop(self, i: int):
        from repro import ESMLoop

        run_dir = fresh_dir(self.workdir / f"run-{i:03d}")
        return ESMLoop(self.config, run_dir, device=self._device(), sleep=_no_sleep)

    def _run_unit(self, i: int):
        """One loop.  The first is kept whole; later ones are compared to
        it and dropped, so memory does not grow with the repeat count."""
        loop = self._loop(i)
        result = loop.run()
        artifacts = tuple((loop.run_dir / a).read_bytes() for a in ARTIFACTS)
        if self.first is None:
            self.first = (loop, result, artifacts)
        else:
            shutil.rmtree(loop.run_dir)
        self.last = result
        return artifacts == self.first[2], result.report.converged

    def _quality(self, loop, result, outcome: Outcome, prefix: str = "") -> None:
        report = result.report
        outcome.metric(prefix + "samples_measured", len(result.dataset), "count")
        # Simulated, not host, seconds: deterministic under the seed.
        outcome.metric(prefix + "device_time_s", device_time_s(loop.run_dir), "sim_s")
        outcome.metric(
            prefix + "min_bin_acc_pct",
            min(report.iterations[-1].bin_accuracies.values()),
            "%",
        )

    def _check_units(self, units, outcome: Outcome) -> None:
        if not outcome.check("units_completed", bool(units), f"{len(units)} runs"):
            return
        outcome.check(
            "artifacts_identical_across_repeats",
            all(u.value[0] for u in units),
            f"{' and '.join(ARTIFACTS)} over {len(units)} runs",
        )
        outcome.check(
            "converged",
            all(u.value[1] for u in units),
            f"acc_th={self.config.acc_th}",
        )

    def measure(self, seconds: float) -> Outcome:
        out = Outcome()
        blocks = []

        def query_surrogate(_) -> None:
            oracle = self.last.latency_oracle()
            blocks.append(query_block(oracle.latency, self.queries))

        units = repeat_for(seconds, self._run_unit, out, after=query_surrogate)
        self._check_units(units, out)
        if not units:
            return out
        loop, result, _ = self.first
        self._quality(loop, result, out)
        samples = out.metrics.pop("samples_measured")[0]
        out.notes.append(
            f"device_time_s {out.metrics.pop('device_time_s')[0]:.6g}, "
            f"min_bin_acc_pct {out.metrics.pop('min_bin_acc_pct')[0]:.4f}"
        )
        unit_metrics(units, samples, "samples measured", out)
        latency_metrics(blocks, "single surrogate queries", out)
        out.metric("peak_rss_mb", peak_rss_mb(), "MB")
        return out

    def trace(self, tracer) -> Outcome:
        from tracing import by_name, layer_self

        out = Outcome()
        # The first unit is the untraced warm-up: traced bytes must match it.
        traced, overhead = traced_pairs(self._run_unit, tracer, out, pairs=3)
        self._check_units(traced, out)
        if not traced:
            return out
        n = len(traced)
        loop, result, _ = self.first
        names = by_name(tracer.spans)

        def self_s(span):
            return names.get(span, {}).get("self_s", 0.0) / n

        fits = names.get("predictors.fit", {"calls": 0, "top_calls": 0})
        p = self.name + "."
        out.metric(p + "predictors.fit_s", self_s("predictors.fit"), "s")
        out.metric(p + "predictors.fit_calls", fits["top_calls"] / n, "count")
        if self.config.predictor == "as":
            out.metric(
                p + "predictors.cv_member_fits",
                (fits["calls"] - fits["top_calls"]) / max(1, fits["top_calls"]),
                "count",
            )
        out.metric(p + "profiling.campaign_s", self_s("profiling.campaign"), "s")
        out.metric(p + "profiling.store_write_s", self_s("profiling.store_write"), "s")
        qc = qc_counts(loop.run_dir)
        out.metric(p + "profiling.qc_attempts", qc["attempts"], "count")
        out.metric(p + "profiling.qc_pass_ratio", qc["passed"] / qc["attempts"], "ratio")
        if self.name == "esm_measure":
            out.metric(
                p + "profiling.transient_retries", qc["transient_retries"], "count"
            )
        out.metric(p + "hardware.measure_s", self_s("hardware.measure"), "s")
        out.metric(
            p + "hardware.measure_calls",
            names.get("hardware.measure", {}).get("top_calls", 0) / n,
            "count",
        )
        out.metric(p + "hardware.true_latency_s", self_s("hardware.true_latency"), "s")
        device = getattr(loop.device, "device", loop.device)
        out.metric(
            p + "hardware.analytical_cache_hit_rate",
            device.cache_info().hit_rate,
            "ratio",
        )
        out.metric(p + "network.build_s", self_s("network.build"), "s")
        out.metric(p + "encodings.encode_s", self_s("encodings.encode"), "s")
        out.metric(p + "encodings.rows", tracer.counts["encodings.encode"] / n, "count")
        out.metric(p + "archspace.sample_s", self_s("archspace.sample"), "s")
        out.metric(p + "metrics.eval_s", self_s("metrics.eval"), "s")
        out.metric(p + "data.save_s", self_s("data.save"), "s")
        out.metric(p + "core.iterations", result.report.n_iterations, "count")
        out.metric(p + "core.self_s", self_s("core.run"), "s")
        self._quality(loop, result, out, prefix=p)
        out.metric(p + "trace.overhead_s", overhead, "s")
        layers = {k: v / n for k, v in layer_self(tracer.spans).items()}
        out.ledger = (median(u.wall_s for u in traced), layers)
        return out
