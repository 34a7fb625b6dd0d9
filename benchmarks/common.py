"""Shared plumbing for the performance benchmarks.

Every benchmark writes one JSON record with a fixed schema::

    {
      "name":           benchmark name ("measure", "campaign", "encode"),
      "params":         the workload knobs, smoke or full,
      "wall_s":         wall-clock seconds of the optimised path,
      "per_item_us":    wall_s spread over the workload items,
      "cache_hit_rate": analytical-cache hit rate (null where no cache),
      "git_rev":        short commit hash the numbers were taken at,
                        suffixed ``-dirty`` on an uncommitted tree,
      ...               benchmark-specific extras (baseline_wall_s,
                        speedup, equivalence flags, ...)
    }

The four header fields always come first so the records diff cleanly
across commits.
"""

from __future__ import annotations

import json
import subprocess
import time
from pathlib import Path
from typing import Callable, List, Optional, Tuple

BENCH_ROOT = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_ROOT / "results"


def _git(*args: str) -> Optional[str]:
    """Stripped stdout of one git command in this checkout, None on failure."""
    try:
        out = subprocess.run(
            ["git", "-C", str(BENCH_ROOT), *args],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def git_rev() -> str:
    """Short hash of the checked-out commit, or ``unknown`` outside git.

    A tree with uncommitted changes to tracked files gets a ``-dirty``
    suffix: its numbers were not taken at that commit.
    """
    rev = _git("rev-parse", "--short", "HEAD")
    if not rev:
        return "unknown"
    if _git("status", "--porcelain", "--untracked-files=no"):
        rev += "-dirty"
    return rev


def sample_configs(family: str, n: int, seed: int) -> Tuple[list, object]:
    """``n`` uniform configs from ``family`` plus the space spec."""
    from repro import RandomSampler, space_by_name

    spec = space_by_name(family)
    return RandomSampler(spec, rng=seed).sample_batch(n), spec


def best_of(fn: Callable[[], object], repeat: int = 3) -> Tuple[float, object]:
    """Minimum wall time of ``repeat`` calls, with the last return value.

    Minimum (not mean) because the benchmarks run on shared machines and
    the slow tail is scheduler noise, not the code under test.
    """
    best = float("inf")
    result = None
    for _ in range(max(1, repeat)):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def write_result(
    name: str,
    *,
    params: dict,
    wall_s: float,
    per_item_us: float,
    cache_hit_rate: Optional[float],
    out_dir: "Path | str | None" = None,
    **extras,
) -> Tuple[Path, dict]:
    """Write ``BENCH_<name>.json`` and return ``(path, payload)``."""
    payload = {
        "name": name,
        "params": params,
        "wall_s": round(float(wall_s), 6),
        "per_item_us": round(float(per_item_us), 3),
        "cache_hit_rate": (
            None if cache_hit_rate is None else round(float(cache_hit_rate), 4)
        ),
        "git_rev": git_rev(),
    }
    payload.update(extras)
    out_dir = RESULTS_DIR if out_dir is None else Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"BENCH_{name}.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path, payload


def summarize(payload: dict) -> str:
    """One status line for the ``python -m benchmarks`` summary."""
    parts: List[str] = [
        f"{payload['name']:<10} {payload['wall_s'] * 1e3:9.1f} ms",
        f"{payload['per_item_us']:9.1f} us/item",
    ]
    if payload.get("speedup") is not None:
        parts.append(f"{payload['speedup']:5.2f}x vs baseline")
    if payload.get("cache_hit_rate") is not None:
        parts.append(f"hit rate {payload['cache_hit_rate']:.0%}")
    return "  ".join(parts)
