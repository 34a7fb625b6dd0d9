"""Resumable-run primitives shared by campaigns, searches and fleets.

Every durable run in the package keeps one contract: re-running the same
command against the same directory resumes from the last committed unit
of work and produces the same bytes.  The three decisions behind it live
here once:

* `fingerprint` — the run identity stored in each manifest; a resume
  against a different fingerprint is refused by the caller.  Changing it
  orphans every existing run directory, so tests pin its values.
* `quarantine` — torn or foreign files are renamed aside, never deleted
  and never overwritten, so every corruption keeps its evidence.
* `run_tasks` — a process pool that commits units as they complete and
  degrades to serial execution, recording why, instead of aborting.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any, Callable, Hashable, Sequence, Tuple, Union

__all__ = ["fingerprint", "quarantine", "run_tasks"]


def fingerprint(payload) -> str:
    """The sha256 of ``payload``'s key-sorted JSON."""
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def quarantine(path: Union[str, Path]) -> Path:
    """Rename ``path`` to ``<name>.corrupt`` (``.corrupt1``, … if taken)."""
    path = Path(path)
    target = path.with_name(path.name + ".corrupt")
    n = 0
    while target.exists():
        n += 1
        target = path.with_name(f"{path.name}.corrupt{n}")
    path.rename(target)
    return target


def run_tasks(
    keys: Sequence[Hashable],
    job: Callable[[Hashable], Tuple[Callable, Any]],
    run_local: Callable[[Hashable], Any],
    commit: Callable[[Hashable, Any], None],
    degrade: Callable[..., None],
    *,
    workers: int,
    mp_context: str,
) -> None:
    """Run every key and ``commit(key, result)`` it.

    With ``workers > 1`` and more than one key, pool workers run the
    picklable ``fn(arg)`` from ``(fn, arg) = job(key)`` and results commit
    in completion order; otherwise ``run_local(key)`` runs each key
    in-process, in order.  If no pool can be created, ``degrade(
    "pool_unavailable", ...)`` is called and every key runs serially; if
    the pool breaks mid-run (a worker segfaults or is OOM-killed),
    ``degrade("broken_process_pool", ...)`` is called and only the keys
    not yet committed run serially.
    """
    keys = list(keys)

    def serial(todo):
        for key in todo:
            commit(key, run_local(key))

    if workers <= 1 or len(keys) <= 1:
        serial(keys)
        return
    try:
        pool = ProcessPoolExecutor(
            max_workers=min(workers, len(keys)),
            mp_context=multiprocessing.get_context(mp_context),
        )
    except (ImportError, NotImplementedError, OSError, ValueError) as exc:
        # ValueError: the start method does not exist on this platform.
        degrade(
            "pool_unavailable",
            error=f"{type(exc).__name__}: {exc}",
            pending=list(keys),
        )
        serial(keys)
        return
    committed = set()
    try:
        with pool:
            futures = {pool.submit(*job(key)): key for key in keys}
            for future in as_completed(futures):
                key = futures[future]
                commit(key, future.result())
                committed.add(key)
    except BrokenProcessPool as exc:
        still_pending = [key for key in keys if key not in committed]
        degrade(
            "broken_process_pool",
            error=f"{type(exc).__name__}: {exc}",
            completed_before_failure=len(committed),
            pending=still_pending,
        )
        serial(still_pending)
