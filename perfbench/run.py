#!/usr/bin/env python3
"""The repo benchmark: two ESM-loop workloads, a surrogate search, a server.

    python3 perfbench/run.py --workload esm_fit --seed 1 --seconds 18 --trace 0
    python3 perfbench/run.py --all                 # every workload, untraced
    python3 perfbench/run.py --all --trace 1       # the per-layer ledger

Each workload runs in fresh worker processes that import ``repro`` from
this checkout's ``src/``.  With ``--trace 0`` the runner times set-up
(process start to ready) in five fresh processes, each after a fresh
reference interpreter (`reference_start_s`), and the last of them then
measures for ``--seconds``; it prints every end-to-end metric with its
unit, the correctness checks, and as its last line one JSON object.  With
``--trace 1`` every workload is run once more under the timing shims of
``tracing.py`` (per-layer metric names carry their workload), and the
ledger names the top self-time layer of each workload and the tracing
overhead.  Every invocation appends one record to
``perfbench/results/history.jsonl``, keyed by git rev (or a digest of
``src/`` where there is no git) and CPU count.  The exit code is non-zero
when any check fails; the problems, and the traceback of any unit that
raised, then go to standard error.  One workload's run, or one traced
run, ends within ``TIME_LIMIT_S``: on a slow host it measures fewer
units rather than overrun.  Metric definitions: ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("esm_fit", "esm_measure", "search", "serve")
END_TO_END = ("setup_s", "cpu_rel", "p50_rel", "peak_rss_mb")
SETUPS = 5  # fresh-process set-ups per run; the last one goes on to measure
# The set-up reference: a fresh interpreter importing NumPy and standard
# library modules that ``import repro`` also loads, and nothing of repro.
REFERENCE_IMPORTS = (
    "numpy, asyncio, concurrent.futures, multiprocessing, json, dataclasses, "
    "argparse, pathlib"
)
NOMINAL_REFERENCE_S = 0.2  # the reference's start-up time, roughly, on the tuning host
# One workload's run (and a whole traced run) ends within this many
# seconds: workers are killed at it, and start no unit of work later
# than REPORT_MARGIN_S before it, so a slow host shortens the run.
TIME_LIMIT_S = 165.0
REPORT_MARGIN_S = 30.0


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # One BLAS thread: the host has few cores and the load generator and
    # server each need one.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(
    workload: str, seed: int, mode: str, seconds: float, workdir: Path,
    kill_at: float, stop_at: Optional[float] = None,
) -> Tuple[Optional[float], Optional[dict], int]:
    """Run one worker; returns (seconds to READY, RESULT payload, exit code).

    The worker is killed at ``kill_at`` and starts no unit of work after
    ``stop_at`` (default ``REPORT_MARGIN_S`` before ``kill_at``), both
    `time.perf_counter` times.
    """
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    now = time.perf_counter()
    if stop_at is None:
        stop_at = kill_at - REPORT_MARGIN_S
    cmd = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
        "--budget", f"{max(0.0, stop_at - now):.3f}",
        "--workdir", str(workdir), "--results", str(RESULTS),
    ]
    started = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT,
        start_new_session=True,  # the worker and its server share a group
    )

    def kill_group() -> None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except OSError:  # the group is gone already
            pass

    timer = threading.Timer(max(1.0, kill_at - now), kill_group)
    timer.start()
    ready = result = None
    try:
        for line in proc.stdout:
            if line.startswith("READY") and ready is None:
                ready = time.perf_counter() - started
            elif line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
            else:
                sys.stderr.write(line)
        code = proc.wait()
    finally:
        timer.cancel()
        kill_group()  # nothing of the worker outlives it
        proc.stdout.close()
        shutil.rmtree(workdir, ignore_errors=True)
    return ready, result, code


def reference_start_s() -> float:
    """Seconds from start to ready of the set-up reference interpreter.

    No change to ``src/`` moves it, while it slows and speeds up with the
    host as a worker's start-up does: over six rounds of ten set-ups
    minutes apart, the rounds' median ``esm_measure`` set-up ranged over
    0.32-0.47 s and its ratio to this reference over 1.90-2.13.
    """
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", f"import {REFERENCE_IMPORTS}; print('READY', flush=True)"],
        stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
    finally:
        proc.stdout.close()
        proc.wait()
    if line.strip() != "READY":
        raise RuntimeError(f"set-up reference exited with {proc.returncode}")
    return elapsed


def failed_checks(result: Optional[dict]) -> List[str]:
    if result is None:
        return ["worker produced no result"]
    return [f"{name}: {detail}" for name, ok, detail in result["checks"] if not ok]


def print_result(
    title: str, result: Optional[dict], metrics: dict, notes: List[str]
) -> None:
    print(f"== {title}")
    for name, m in metrics.items():
        print(f"   {name:<44} {m['value']:>14.6g} {m['unit']}")
    if result is not None:
        for name, ok, detail in result["checks"]:
            print(f"   check {'ok  ' if ok else 'FAIL'} {name} {detail}")
    for note in notes:
        print("   " + note.rstrip().replace("\n", "\n   "))


def measure(workload: str, seed: int, seconds: float) -> dict:
    """Untraced run of one workload: end-to-end metrics plus checks."""
    workdir = RESULTS / "work" / f"{workload}-{os.getpid()}"
    kill_at = time.perf_counter() + TIME_LIMIT_S
    readies, references = [], []
    for _ in range(SETUPS - 1):
        references.append(reference_start_s())
        ready, _, code = spawn(workload, seed, "setup", seconds, workdir, kill_at)
        readies.append(ready)
    references.append(reference_start_s())
    ready, result, code = spawn(workload, seed, "run", seconds, workdir, kill_at)
    readies.append(ready)
    problems = failed_checks(result)
    if code != 0:
        problems.append(f"worker exited with {code}")
    if None in readies:
        problems.append("a set-up never became ready")
    metrics = {}
    notes = [] if result is None else result["notes"]
    if None not in readies:
        # Set-up seconds at the host speed where the reference takes
        # NOMINAL_REFERENCE_S: raw seconds drift with the host by more than
        # setup_s's bound between sets of runs minutes apart.
        setup, reference = statistics.median(readies), statistics.median(references)
        metrics["setup_s"] = {
            "value": setup / reference * NOMINAL_REFERENCE_S, "unit": "s"
        }
        notes = [f"set-up: raw median {setup:.4f} s over {len(readies)}, "
                 f"reference start-up median {reference:.4f} s"] + notes
    if result is not None:
        metrics.update(result["metrics"])
    # A latency with an unanswered request is infinite, which JSON cannot
    # carry; the failed request already fails the run.
    missing = [
        m for m in END_TO_END
        if m not in metrics or not math.isfinite(metrics[m]["value"])
    ]
    if missing:
        problems.append(f"missing or non-finite metrics {missing}")
    metrics = {m: metrics[m] for m in END_TO_END if m not in missing}
    print_result(
        f"{workload} (seed {seed}, {seconds:g}s, set-up n={len(readies)})",
        result, metrics, notes,
    )
    return {
        "correct": not problems,
        "problems": problems,
        "attempted": 0 if result is None else result["attempted"],
        "failed": 0 if result is None else result["failed"],
        "metrics": metrics,
        "notes": notes,
    }


def trace(workloads, seed: int, seconds: float) -> dict:
    """Traced runs: per-layer metrics, overhead and the ledger."""
    merged = {"correct": True, "problems": [], "attempted": 0, "failed": 0,
              "metrics": {}, "notes": []}
    kill_at = time.perf_counter() + TIME_LIMIT_S
    for left, workload in zip(range(len(workloads), 0, -1), workloads):
        workdir = RESULTS / "work" / f"{workload}-{os.getpid()}"
        # An equal share of what is left before the margin.
        now = time.perf_counter()
        stop_at = now + (kill_at - REPORT_MARGIN_S - now) / left
        _, result, code = spawn(
            workload, seed, "trace", seconds, workdir, kill_at, stop_at
        )
        problems = failed_checks(result)
        if code != 0:
            problems.append(f"worker exited with {code}")
        metrics = {} if result is None else result["metrics"]
        notes = [] if result is None else result["notes"]
        print_result(f"{workload} traced (seed {seed})", result, metrics, notes)
        bad = [m for m, v in metrics.items() if not math.isfinite(v["value"])]
        if bad:
            problems.append(f"non-finite metrics {bad}")
            metrics = {m: v for m, v in metrics.items() if m not in bad}
        if result is not None and result["ledger"]:
            wall, layers = result["ledger"]
            print(f"   ledger (self time per unit of work; traced unit {wall:.6g}):")
            for layer, own in sorted(layers.items(), key=lambda kv: -kv[1]):
                print(f"     {layer:<12} {own:>12.6g}  {own / wall:6.1%}")
            top = max(layers, key=layers.get)
            print(f"   top self-time layer: {top}")
        merged["correct"] &= not problems
        merged["problems"] += [f"{workload}: {p}" for p in problems]
        merged["metrics"].update(metrics)
        if result is not None:
            merged["notes"] += [f"{workload}: {n}" for n in result["notes"]]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
    return merged


def revision() -> dict:
    rev = None
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            rev = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return {"git_rev": rev, "src_digest": digest.hexdigest()[:16]}


def append_history(record: dict) -> None:
    RESULTS.mkdir(parents=True, exist_ok=True)
    with open(RESULTS / "history.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--workload", choices=WORKLOADS)
    group.add_argument("--all", action="store_true", help="every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    chosen = list(WORKLOADS) if args.all else [args.workload]
    if args.trace:
        # Per-layer metrics are named per workload, so a traced run covers
        # them all, the requested workload first.
        order = chosen + [w for w in WORKLOADS if w not in chosen]
        summary = trace(order, args.seed, args.seconds)
    else:
        runs = {w: measure(w, args.seed, args.seconds) for w in chosen}
        if args.all:
            summary = {
                "correct": all(r["correct"] for r in runs.values()),
                "problems": [f"{w}: {p}" for w, r in runs.items() for p in r["problems"]],
                "attempted": sum(r["attempted"] for r in runs.values()),
                "failed": sum(r["failed"] for r in runs.values()),
                "metrics": {
                    f"{w}.{m}": v for w, r in runs.items() for m, v in r["metrics"].items()
                },
                "notes": [f"{w}: {n}" for w, r in runs.items() for n in r["notes"]],
            }
        else:
            summary = runs[args.workload]

    append_history({
        **revision(),
        "nproc": os.cpu_count(),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "workloads": chosen,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": summary["metrics"],
        "notes": summary["notes"],
    })
    if not summary["correct"]:
        # The notes hold the traceback of every unit that raised.
        for note in summary["notes"]:
            print(note.rstrip(), file=sys.stderr)
    for problem in summary["problems"]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": summary["correct"],
        "attempted": max(1, summary["attempted"]),
        "failed": summary["failed"],
        "metrics": summary["metrics"],
    }))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
