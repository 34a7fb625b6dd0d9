"""The ``serve`` workload: the JSON-lines prediction server under load.

Set-up fits an MLP surrogate for each of two keys (resnet and densenet
on raspberrypi4, FCC), saves them as ``<space>__<device>__<encoding>.json``
and starts ``python -m repro.serve`` on them in its own process.  The
load comes from one process (`loadgen`) over two connections (the
host's CPU count), as pre-serialised lines on a seeded Poisson schedule.
Configs are drawn Zipf-skewed from a pool of 1000 per key, so the
server's LRU hits.  In the second fixed-rate window the generator
atomically replaces the resnet model file, which forces a hot swap and
an LRU invalidation while reads continue.

Measured (each as a median over the run's rounds):

* ``p50_rel``: request latency at the fixed offered rate, from each
  request's due time to its reply, median per 1000-request window, over
  the load generator's own CPU seconds per request in that window
  (``p50_ms`` and ``p99_ms`` are printed);
* ``cpu_rel``: the server's CPU seconds to answer a burst of 3000
  requests sent at once, over the generator's CPU seconds for the same
  burst (server CPU and wall seconds are printed).

The generator's CPU time is the reference because it is fixed benchmark
code (send, receive and parse one line per request; the lines are
serialised beforehand) running on the same host at the same moment, so
it slows and speeds up with the host as the server does.  A reference
timed in the server process between phases did not track the server:
over eight seeds the burst's server CPU time over it spread by 0.16 of
its median, over the generator's by 0.07.  Latency at this rate is
mostly wake-ups of the two processes, which neither reference sees, so
``serve`` is not one of the gated workloads (perfbench/README.md).

The traced run also finds ``max_rate_rps``: the highest rate on the fixed
grid whose probe keeps p99 within ``LIMIT_S`` with no growing backlog.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from common import (
    Outcome,
    Timed,
    latency_metrics,
    median,
    p50_p99,
    past_hard_stop,
    peak_rss_mb,
    proc_cpu_s,
    proc_peak_rss_mb,
)
from loadgen import request, run_phase
from stats import (
    due_latencies,
    lateness,
    max_passing_rate,
    percentile,
    poisson_offsets,
    probe_holds,
    rate_grid,
)

KEYS = (("resnet", "raspberrypi4", "fcc"), ("densenet", "raspberrypi4", "fcc"))
SWAPPED = 0  # index of the key whose model file is replaced mid-run
TRAIN_SIZE = 300
POOL = 1000  # distinct configs per key
ZIPF_S = 1.1
# Fixed offered rate: a quarter of the lowest max_rate_rps that ten seeds
# measured on a shared two-vCPU host (1044 req/s), so no seed runs the
# server near saturation.
RATE_RPS = 250.0
WINDOW = 1000  # requests per fixed-rate window: p99 has 10 samples beyond
MIN_ROUNDS = 3
CONNECTIONS = 2
BURST = 3000
PROBE_N = 1000  # requests per max-rate probe: p99 has 10 samples beyond
# From the fixed rate up: a server that cannot hold RATE_RPS fails the check.
GRID = rate_grid(RATE_RPS, 16000.0, 1.1)  # 44 rates: bisection takes 6 probes
LIMIT_S = 0.020  # p99 limit: 10x the batcher's 2 ms max_wait
MAX_WAIT_MS = 2.0
POLL_S = 0.1
# After the swap, replies for the swapped key must all name version 2
# once the registry has polled and reloaded (poll interval plus margin).
SWAP_GRACE_S = POLL_S + 0.5
SERVE_MAIN = Path(__file__).resolve().parent / "serve_main.py"


def model_name(key) -> str:
    return "__".join(key) + ".json"


class ServeWorkload:
    def __init__(self, name: str, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.trace_dir = workdir
        self.server: Optional[subprocess.Popen] = None
        self.next_id = 0
        self.swap_time = float("inf")
        self.mismatched = 0  # replies with a wrong id, version or value
        self.swap_seen = False

    # ------------------------------------------------------------------ #
    # Set-up
    # ------------------------------------------------------------------ #

    def setup(self) -> None:
        from repro import (
            MLPPredictor,
            RandomSampler,
            SimulatedDevice,
            encoder_for,
            space_by_name,
        )

        self.models = self.workdir / "models"
        self.models.mkdir(parents=True)
        self.versions: List[list] = []  # per key: the models, version 1 first
        for k, (space, device, encoding) in enumerate(KEYS):
            spec = space_by_name(space)
            train = RandomSampler(
                spec, rng=np.random.default_rng([self.seed, k, 1])
            ).sample_batch(TRAIN_SIZE)
            measured, _ = SimulatedDevice(device, seed=self.seed + k).measure_batch(
                train, runs=30, rng=np.random.default_rng([self.seed, k, 2])
            )
            X = encoder_for(encoding, spec).encode_batch(train, spec)
            versions = [MLPPredictor(epochs=150, seed=self.seed).fit(X, measured)]
            if k == SWAPPED:
                versions.append(
                    MLPPredictor(epochs=150, seed=self.seed + 1).fit(X, measured)
                )
                versions[0].save(self.workdir / "original.json")
                versions[1].save(self.workdir / "swap.json")
            versions[0].save(self.models / model_name(KEYS[k]))
            self.versions.append(versions)
        self.start_server()

    def prepare(self) -> None:
        """Benchmark inputs made after set-up: query pools and their lines."""
        from repro import RandomSampler, encoder_for, space_by_name

        self.bodies: List[List[bytes]] = []
        self.expected: Dict[tuple, np.ndarray] = {}  # (key index, version)
        for k, (space, device, encoding) in enumerate(KEYS):
            spec = space_by_name(space)
            pool = RandomSampler(
                spec, rng=np.random.default_rng([self.seed, k, 3])
            ).sample_batch(POOL)
            X_pool = encoder_for(encoding, spec).encode_batch(pool, spec)
            for v, model in enumerate(self.versions[k], start=1):
                self.expected[(k, v)] = model.predict(X_pool)
            head = {"op": "predict", "space": space, "device": device,
                    "encoding": encoding}
            self.bodies.append(
                [
                    json.dumps({**head, "config": c.to_dict()})[1:].encode()
                    for c in pool
                ]
            )
        weights = 1.0 / np.arange(1, POOL + 1) ** ZIPF_S
        self.popularity = weights / weights.sum()
        self.rng = np.random.default_rng([self.seed, 7])
        self.ranks = [self.rng.permutation(POOL) for _ in KEYS]

    def start_server(self, trace_out: Optional[Path] = None) -> None:
        args = [sys.executable, "-u", str(SERVE_MAIN)]
        if trace_out is not None:
            args += ["--trace-out", str(trace_out)]
        args += [
            "--", "--models", str(self.models), "--port", "0",
            "--poll-interval", str(POLL_S), "--max-wait-ms", str(MAX_WAIT_MS),
        ]
        self.server = subprocess.Popen(args, stdout=subprocess.PIPE, text=True)
        for line in self.server.stdout:
            match = re.search(r"listening on ([\d.]+):(\d+)", line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return
        self.stop_server()
        raise RuntimeError("prediction server exited before listening")

    def stop_server(self) -> Optional[float]:
        """Stop the server; returns its peak RSS in MB."""
        server, self.server = self.server, None
        if server is None:
            return None
        rss = proc_peak_rss_mb(server.pid)
        server.send_signal(signal.SIGTERM)
        try:
            server.wait(timeout=5)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()
        server.stdout.close()
        return rss

    def close(self) -> None:
        self.stop_server()

    # ------------------------------------------------------------------ #
    # Load
    # ------------------------------------------------------------------ #

    def _requests(self, n: int):
        """``n`` requests: (key index, pool index) plus their lines."""
        first = self.next_id
        self.next_id += n
        keys = self.rng.integers(len(KEYS), size=n)
        ranks = self.rng.choice(POOL, size=n, p=self.popularity)
        picks = [(int(k), int(self.ranks[k][r])) for k, r in zip(keys, ranks)]
        lines = [
            b'{"id": %d, ' % (first + i) + self.bodies[k][j] + b"\n"
            for i, (k, j) in enumerate(picks)
        ]
        return first, picks, lines

    def _swap(self) -> None:
        """Atomically overwrite the swapped key's model file."""
        self.swap_time = time.perf_counter()
        staged = self.models / ".swap.tmp"
        shutil.copyfile(self.workdir / "swap.json", staged)
        os.replace(staged, self.models / model_name(KEYS[SWAPPED]))

    def _phase(self, n: int, offsets, out: Outcome, swap_at: Optional[int] = None):
        first, picks, lines = self._requests(n)
        events = {} if swap_at is None else {swap_at: self._swap}
        result = run_phase(
            self.host, self.port, lines, offsets,
            first_id=first, connections=CONNECTIONS, events=events,
        )
        self._validate(picks, result, out, swap_at)
        return first, result

    def _validate(self, picks, result, out: Outcome, swap_at) -> None:
        """Count failures and check each reply against the model it names."""
        out.attempted += len(picks)
        mismatched = result.stray
        swap_time = self.swap_time  # inf until the swap event has run
        for (k, j), reply, replied in zip(picks, result.replies, result.replied):
            if reply is None or "error" in reply:
                out.failed += 1
                continue
            version = reply.get("model_version")
            expected = self.expected.get((k, version))
            mismatched += (
                expected is None
                or (replied < swap_time and version != 1)
                # A cached version-1 answer outliving the swap (stale LRU).
                or (k == SWAPPED and replied > swap_time + SWAP_GRACE_S and version != 2)
                or not np.isclose(reply["latency_s"], expected[j], rtol=1e-6, atol=0.0)
            )
        self.mismatched += mismatched
        if swap_at is not None:
            self.swap_seen = self.swap_seen or any(
                r is not None and k == SWAPPED and r.get("model_version") == 2
                for (k, _), r in zip(picks, result.replies)
            )

    def _fixed_rate(self, seconds: float, out: Outcome):
        n = int(RATE_RPS * seconds)
        offsets = poisson_offsets(RATE_RPS, n, self.rng)
        return self._phase(n, offsets, out, swap_at=n // 2)

    def _max_rate(self, out: Outcome) -> Optional[float]:
        """Bisect the rate grid with open-loop probes (``max_rate_rps``)."""

        def probe(rate: float) -> bool:
            _, result = self._phase(
                PROBE_N, poisson_offsets(rate, PROBE_N, self.rng), out
            )
            return probe_holds(due_latencies(result.due, result.replied), LIMIT_S)

        # One retry: a single probe can fail on a passing stall of the host.
        return max_passing_rate(GRID, lambda rate: probe(rate) or probe(rate))

    def _checks(self, out: Outcome) -> None:
        out.check(
            "replies_match_requests_and_models",
            self.mismatched == 0,
            f"{self.mismatched} replies with a wrong id, version or value, "
            f"or a swapped key's version-1 reply {SWAP_GRACE_S:g}s after the swap",
        )
        out.check("model_version_advanced_after_swap", self.swap_seen)
        out.check("no_failed_requests", out.failed == 0, f"{out.failed} failed")

    def measure(self, seconds: float) -> Outcome:
        """Rounds of (fixed-rate window, burst) for ``seconds``.

        Interleaving spreads both metrics' samples over the whole run, so
        a slow spell of the host lands in a few windows and bursts, not in
        all of one metric.  The swap happens in the second window.
        """
        out = Outcome()
        windows, bursts, lags = [], [], []
        deadline = time.perf_counter() + seconds
        while len(windows) < MIN_ROUNDS or time.perf_counter() < deadline:
            if len(windows) >= 2 and past_hard_stop():  # the swap is in window 2
                break
            swap_at = WINDOW // 2 if len(windows) == 1 else None
            offsets = poisson_offsets(RATE_RPS, WINDOW, self.rng)
            _, fixed = self._phase(WINDOW, offsets, out, swap_at=swap_at)
            latencies = due_latencies(fixed.due, fixed.replied)
            windows.append((*p50_p99(latencies), fixed.cpu_s / WINDOW))
            lags.extend(lateness(fixed.due, fixed.sent))
            cpu_before = proc_cpu_s(self.server.pid)
            _, burst = self._phase(BURST, [0.0] * BURST, out)
            answered = [r for r in burst.replied if r is not None]
            wall = max(answered) - burst.due[0] if answered else float("inf")
            cpu = proc_cpu_s(self.server.pid) - cpu_before
            bursts.append(Timed(wall, cpu, burst.cpu_s, None))
        stats = request(self.host, self.port, {"id": -1, "op": "stats"})
        server_rss = self.stop_server()
        self._checks(out)
        wall = median(u.wall_s for u in bursts)
        cpu = median(u.cpu_s for u in bursts)
        out.metric("cpu_rel", median(u.cpu_s / u.ref_s for u in bursts), "ratio")
        latency_metrics(windows, f"requests at {RATE_RPS:g}/s", out)
        out.metric("peak_rss_mb", server_rss or peak_rss_mb(), "MB")
        out.notes.append(
            f"generator lag p50 {median(lags) * 1e3:.3f} ms, p99 "
            f"{percentile(lags, 99.0) * 1e3:.3f} ms; bursts n={len(bursts)} of "
            f"{BURST}: wall {wall:.4f} s ({BURST / wall:.0f} req/s), server "
            f"cpu_s {cpu:.4f}, generator cpu_s {median(u.ref_s for u in bursts):.4f}"
            f"; cache_hit_rate {stats.get('cache_hit_rate', 0):.3f}, "
            f"mean_batch {stats.get('mean_batch', 0):.2f}, swaps {stats.get('swaps')}"
        )
        return out

    def trace(self, tracer) -> Outcome:
        from tracing import END, NAME, RID, START, by_name, self_times

        out = Outcome()
        phase_s = WINDOW / RATE_RPS
        _, plain = self._fixed_rate(phase_s, out)
        max_rate = self._max_rate(out)
        self.stop_server()
        shutil.copyfile(self.workdir / "original.json", self.workdir / "restore.tmp")
        os.replace(self.workdir / "restore.tmp", self.models / model_name(KEYS[SWAPPED]))
        trace_file = self.trace_dir / "trace-serve-server.jsonl"
        self.start_server(trace_out=trace_file)
        first, traced = self._fixed_rate(phase_s, out)
        stats = request(self.host, self.port, {"id": -1, "op": "stats"})
        self.stop_server()
        self._checks(out)
        out.check(
            "some_grid_rate_holds",
            max_rate is not None,
            f"lowest grid rate {GRID[0]:g}/s, p99 limit {LIMIT_S * 1e3:g} ms",
        )

        for i, (due, replied) in enumerate(zip(traced.due, traced.replied)):
            if replied is not None:
                tracer.record("client.request", due, replied, rid=first + i)
        server_spans = [
            [row["name"], row["start"], row["end"], row["parent"], row.get("request_id")]
            for row in map(json.loads, trace_file.read_text().splitlines())
        ]
        selfs = self_times(server_spans)
        predict = {s[RID]: s[END] - s[START] for s in server_spans if s[NAME] == "serve.predict"}
        frontend = [
            (traced.replied[i] - traced.sent[i]) - predict[first + i]
            for i in range(len(traced.replied))
            if traced.replied[i] is not None and first + i in predict
        ]
        queue = [s[END] - s[START] for s in server_spans if s[NAME] == "serve.queue"]
        totals: Dict[str, float] = {}
        for span, own in zip(server_spans, selfs):
            if span[NAME] not in ("serve.predict", "serve.queue"):
                layer = span[NAME].split(".")[0]
                totals[layer] = totals.get(layer, 0.0) + own
        n = len(traced.replied)
        p = "serve."
        out.metric(p + "serve.frontend_self_ms", median(frontend) * 1e3, "ms")
        out.metric(p + "serve.queue_wait_ms", median(queue) * 1e3, "ms")
        out.metric(p + "serve.mean_batch", stats["mean_batch"], "count")
        out.metric(p + "serve.cache_hit_rate", stats["cache_hit_rate"], "ratio")
        out.metric(p + "serve.swaps", stats["swaps"], "count")
        if max_rate is not None:
            out.metric(p + "serve.max_rate_rps", max_rate, "1/s")
        out.metric(
            p + "serve.generator_lag_ms",
            percentile(lateness(traced.due, traced.sent), 99.0) * 1e3,
            "ms",
        )
        names = by_name(server_spans)
        for span in ("encodings.encode", "predictors.predict"):
            out.metric(
                p + span + "_s", names.get(span, {}).get("self_s", 0.0), "s"
            )
        untraced_p50 = median(due_latencies(plain.due, plain.replied))
        traced_p50 = median(due_latencies(traced.due, traced.replied))
        out.metric(p + "trace.overhead_ms", (traced_p50 - untraced_p50) * 1e3, "ms")
        # Ledger per request: the front end's self time, queue wait, and
        # the self time of each server layer inside the flushes.
        layers = {k: v / n for k, v in totals.items()}
        layers["frontend"] = sum(frontend) / n
        layers["queue"] = sum(queue) / n
        out.ledger = (traced_p50, layers)
        return out
