"""The benchmark's own arithmetic, free of I/O so it can be unit-tested.

* Timings are summarised as a median plus the highest percentile that
  still has at least ``MIN_BEYOND`` samples above it, with the count.
* Open-loop load is timed from each request's *due* time, so a stall
  that delays later sends is charged to those requests, and the
  generator's own lateness (actual send minus due) is reported apart.
* A probe rate "holds" when its tail latency meets the limit, nothing
  failed, and the queue did not grow over the probe (``growing_backlog``).
* ``max_passing_rate`` bisects a fixed rate grid with such a probe.
"""

from __future__ import annotations

import math
import statistics
from typing import Callable, Dict, List, Optional, Sequence

MIN_BEYOND = 10
PERCENTILE_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(round(pct / 100.0 * len(ordered), 9)))
    return ordered[rank - 1]


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``pct``."""
    return n - max(1, math.ceil(round(pct / 100.0 * n, 9)))


def tail_percentile(n: int, min_beyond: int = MIN_BEYOND) -> Optional[float]:
    """The highest ladder percentile with at least ``min_beyond`` samples beyond.

    ``None`` when even the median is not backed (fewer than
    ``2 * min_beyond`` samples).
    """
    for pct in PERCENTILE_LADDER:
        if samples_beyond(n, pct) >= min_beyond:
            return pct
    return None


def summarize(values: Sequence[float]) -> Dict[str, Optional[float]]:
    """Median, highest backed tail percentile (and its value), sample count."""
    n = len(values)
    if n == 0:
        raise ValueError("summarize needs at least one sample")
    tail = tail_percentile(n)
    return {
        "n": n,
        "median": statistics.median(values),
        "tail_pct": tail,
        "tail": None if tail is None else percentile(values, tail),
    }


# --------------------------------------------------------------------- #
# Open-loop accounting
# --------------------------------------------------------------------- #


def poisson_offsets(rate: float, n: int, rng) -> List[float]:
    """Due times (seconds from phase start) of ``n`` Poisson arrivals."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    gaps = rng.exponential(1.0 / rate, size=n)
    return [float(t) for t in gaps.cumsum()]


def due_latencies(
    due: Sequence[float], replied: Sequence[Optional[float]]
) -> List[float]:
    """Per-request latency from due time to reply; ``inf`` for no reply."""
    return [
        math.inf if r is None else r - d for d, r in zip(due, replied)
    ]


def lateness(due: Sequence[float], sent: Sequence[float]) -> List[float]:
    """How late the generator sent each request (never negative)."""
    return [max(0.0, s - d) for d, s in zip(due, sent)]


def growing_backlog(
    latencies_by_due: Sequence[float], threshold_s: float
) -> bool:
    """Did latency climb over the probe, i.e. did the queue keep growing?

    Requests are taken in due order and split into quarters; the queue is
    growing when the last quarter's median latency exceeds the first
    quarter's by more than ``threshold_s``.  An unanswered request
    (``inf``) in the last quarter counts as growth.
    """
    n = len(latencies_by_due)
    if n < 4:
        raise ValueError("backlog detection needs at least 4 requests")
    quarter = n // 4
    first = statistics.median(latencies_by_due[:quarter])
    last = statistics.median(latencies_by_due[n - quarter :])
    return last - first > threshold_s


def probe_holds(latencies_by_due: Sequence[float], limit_s: float) -> bool:
    """A rate holds when its p99 meets the limit with no growing backlog."""
    if any(math.isinf(x) for x in latencies_by_due):
        return False
    if percentile(latencies_by_due, 99.0) > limit_s:
        return False
    return not growing_backlog(latencies_by_due, limit_s / 2.0)


def rate_grid(lo: float, hi: float, ratio: float) -> List[float]:
    """Geometric grid ``lo, lo*ratio, ...`` up to ``hi``, rounded to 1/s."""
    grid = []
    rate = lo
    while rate <= hi * (1 + 1e-9):
        grid.append(float(round(rate)))
        rate *= ratio
    return grid


def max_passing_rate(
    grid: Sequence[float], holds: Callable[[float], bool]
) -> Optional[float]:
    """Highest grid rate for which ``holds`` is true, by bisection.

    Assumes a rate that holds implies every lower rate holds.  Returns
    ``None`` when even the lowest rate fails.
    """
    lo, hi = -1, len(grid)  # grid[lo] holds (or lo == -1); grid[hi] fails
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(grid[mid]):
            lo = mid
        else:
            hi = mid
    return None if lo < 0 else grid[lo]
