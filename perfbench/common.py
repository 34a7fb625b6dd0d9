"""Pieces every workload shares: repeat loops, checks, results, RSS."""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from stats import summarize

QUERY_SLOT = 0x51  # rng slot of the latency-query configs
QUERY_BLOCK = 1000  # single-config queries per block: p99 has 10 beyond
MIN_REPEATS = 3
MAX_REPEATS = 200
REFERENCE_REPEATS = 3
# perf_counter time after which no further unit starts, minimum repeat
# counts notwithstanding, so a slow host shortens a run instead of
# pushing it past its time limit.  Set by the worker from ``--budget``.
HARD_STOP = float("inf")


def past_hard_stop() -> bool:
    return time.perf_counter() >= HARD_STOP


class Timed(NamedTuple):
    """One successful unit of work."""

    wall_s: float
    cpu_s: float  # CPU time of the unit's process over the unit
    ref_s: float  # reference CPU time it is set against (`reference_cpu_s`)
    value: object


def reference_cpu_s() -> float:
    """CPU seconds of a fixed mix of interpreter, JSON and small NumPy work.

    It shares no code with ``repro``, so no change to the program moves
    it, while it slows and speeds up with the host as the program does;
    in-process work is gated as a ratio to it (``cpu_rel``, ``p50_rel``).
    Median of three.
    """
    a = np.random.default_rng(0).standard_normal((48, 48))
    times = []
    for _ in range(REFERENCE_REPEATS):
        c0 = time.process_time()
        acc = 0.0
        for i in range(150):
            row = {"i": i, "vals": [float(x) for x in a[i % 48, :16]]}
            text = json.dumps(row, sort_keys=True)
            acc += sum(v * v for v in json.loads(text)["vals"]) + len(text)
            acc += float(np.tanh(a @ a[:, :8] * 0.01).sum())
            acc += sum({k: k * 2 for k in range(100)}.values())
        times.append(time.process_time() - c0)
    return statistics.median(times)


@dataclass
class Outcome:
    """What a measured (or traced) worker hands back to the runner."""

    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: List[Tuple[str, bool, str]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    # Traced runs: (traced wall of one unit, {layer: self seconds per unit}).
    ledger: Optional[Tuple[float, Dict[str, float]]] = None

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append((name, bool(ok), detail))
        return bool(ok)

    def to_dict(self) -> dict:
        return {
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
            "attempted": self.attempted,
            "failed": self.failed,
            "checks": [list(c) for c in self.checks],
            "notes": self.notes,
            "ledger": self.ledger,
        }


def repeat_for(
    seconds: float,
    unit: Callable[[int], object],
    outcome: Outcome,
    min_repeats: int = MIN_REPEATS,
    after: Optional[Callable[[object], None]] = None,
) -> List[Timed]:
    """Call ``unit(i)`` until ``seconds`` have passed (at least
    ``min_repeats`` times, unless `HARD_STOP` comes first; even then at
    least twice, or once if ``min_repeats`` is 1, so the byte checks
    across repeats still compare two runs).

    Returns a `Timed` per successful call, its reference the mean of
    `reference_cpu_s` timed just before and just after the call (one
    sample each side halved the spread of the ratio against one before);
    a call that raises is counted as failed, its traceback kept in the
    notes.  ``after(value)`` runs untimed after each successful call, so
    work measured alongside (query blocks) is spread over the same window.
    """
    done: List[Timed] = []
    deadline = time.perf_counter() + seconds
    i = 0
    while i < MAX_REPEATS and (i < min_repeats or time.perf_counter() < deadline):
        if i >= min(2, min_repeats) and past_hard_stop():
            break
        outcome.attempted += 1
        ref_before = reference_cpu_s()
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            value = unit(i)
        except Exception:  # a failed unit is a result, not a crash
            outcome.failed += 1
            outcome.notes.append(traceback.format_exc(limit=5))
        else:
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            ref = (ref_before + reference_cpu_s()) / 2
            done.append(Timed(wall, cpu, ref, value))
            if after is not None:
                after(value)
        i += 1
    return done


def traced_pairs(
    unit: Callable[[int], object], tracer, outcome: Outcome, pairs: int
) -> Tuple[List[Timed], float]:
    """Alternate untraced and traced units after one warm-up unit.

    Returns the traced units and the tracing overhead: the median over
    pairs of traced minus untraced wall time.  Pairs after the first are
    skipped once `HARD_STOP` has passed.
    """
    from tracing import install

    repeat_for(0, unit, outcome, min_repeats=1)
    traced: List[Timed] = []
    deltas = []
    for i in range(pairs):
        if i and past_hard_stop():
            break
        plain = repeat_for(0, lambda _: unit(1 + 2 * i), outcome, min_repeats=1)
        uninstall = install(tracer)
        try:
            shimmed = repeat_for(0, lambda _: unit(2 + 2 * i), outcome, min_repeats=1)
        finally:
            uninstall()
        traced += shimmed
        if plain and shimmed:
            deltas.append(shimmed[0].wall_s - plain[0].wall_s)
    return traced, (statistics.median(deltas) if deltas else float("nan"))


def query_block(
    query: Callable[[object], object], configs
) -> Tuple[float, float, float]:
    """Median and p99 host seconds of one single-config query per config,
    and the mean of the references timed just before and after the block.

    The configs are fresh copies, so no per-instance memo from an earlier
    block makes this one cheaper: every block pays the same path.
    """
    from repro import ArchConfig

    fresh = [ArchConfig.from_dict(c.to_dict()) for c in configs]
    ref_before = reference_cpu_s()
    clock = time.perf_counter
    times = []
    for config in fresh:
        t0 = clock()
        query(config)
        times.append(clock() - t0)
    return (*p50_p99(times), (ref_before + reference_cpu_s()) / 2)


def p50_p99(times: List[float]) -> Tuple[float, float]:
    """Median and p99 of one block; the block must back p99 by 10 samples."""
    summary = summarize(times)
    if summary["tail_pct"] != 99.0:
        raise ValueError(f"{len(times)} samples do not back exactly p99")
    return summary["median"], summary["tail"]


def latency_metrics(
    blocks: List[Tuple[float, float, float]], what: str, outcome: Outcome
) -> None:
    """``p50_rel`` from blocks of 1000 latencies, each given as
    ``(p50, p99, reference)``: the median over blocks of p50 / reference.

    The medians over blocks of p50 and p99 (10 samples beyond in each
    block) are printed beside it in milliseconds.
    """
    outcome.metric("p50_rel", median(p50 / ref for p50, _, ref in blocks), "ratio")
    outcome.notes.append(
        f"{what}: {len(blocks)} blocks of 1000; p50_ms "
        f"{median(b[0] for b in blocks) * 1e3:.4f}, p99_ms "
        f"{median(b[1] for b in blocks) * 1e3:.4f} (per block, median over "
        "blocks)"
    )


def unit_metrics(units: List[Timed], work: float, what: str, outcome: Outcome) -> None:
    """``cpu_rel``: median over units of CPU time over the reference
    timed around the unit.

    Wall time, CPU time and the work rates are printed beside it.
    """
    wall = median(u.wall_s for u in units)
    cpu = median(u.cpu_s for u in units)
    outcome.metric("cpu_rel", median(u.cpu_s / u.ref_s for u in units), "ratio")
    outcome.notes.append(
        f"n={len(units)} runs of {work:g} {what}: wall_s {wall:.4f} "
        f"({work / wall:.1f}/s), cpu_s {cpu:.4f} ({work / cpu:.1f}/s), "
        f"reference {median(u.ref_s for u in units) * 1e3:.3f} ms"
    )


def median(values) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_cpu_s(pid: int) -> float:
    """CPU seconds another live process has run so far.

    From ``/proc/<pid>/schedstat`` (nanoseconds on a CPU).  Like
    ``time.process_time``, it leaves out the time a hypervisor gives the
    CPU to other guests, which wall time includes.
    """
    return int(Path(f"/proc/{pid}/schedstat").read_text().split()[0]) / 1e9


def proc_peak_rss_mb(pid: int) -> Optional[float]:
    """Peak resident memory (VmHWM) of another live process, if readable."""
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return None
    for line in text.splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return None


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
