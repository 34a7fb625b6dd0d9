"""One workload in a fresh process: set up, say so, then measure or trace.

    python3 perfbench/worker.py --workload W --seed N --mode setup|run|trace \
        --seconds S --budget B --workdir DIR --results DIR

Prints ``READY`` once set-up is done (the runner times process start to
that line), then for ``run`` and ``trace`` one ``RESULT <json>`` line.
No unit of work starts more than ``--budget`` seconds after the worker
started, once one has been done (``common.HARD_STOP``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import common
from esm_workload import ESMWorkload
from search_workload import SearchWorkload
from serve_workload import ServeWorkload

WORKLOADS = {
    "esm_fit": ESMWorkload,
    "esm_measure": ESMWorkload,
    "search": SearchWorkload,
    "serve": ServeWorkload,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--budget", type=float, default=float("inf"))
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--results", type=Path, required=True)
    args = parser.parse_args(argv)
    common.HARD_STOP = time.perf_counter() + args.budget

    workload = WORKLOADS[args.workload](args.workload, args.seed, args.workdir)
    workload.trace_dir = args.results
    try:
        workload.setup()
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        prepare = getattr(workload, "prepare", None)
        if prepare is not None:
            prepare()
        if args.mode == "run":
            outcome = workload.measure(args.seconds)
        else:
            from tracing import Tracer

            tracer = Tracer()
            outcome = workload.trace(tracer)
            tracer.write_jsonl(args.results / f"trace-{args.workload}.jsonl")
        print("RESULT " + json.dumps(outcome.to_dict()), flush=True)
        return 0
    finally:
        close = getattr(workload, "close", None)
        if close is not None:
            close()


if __name__ == "__main__":
    sys.exit(main())
