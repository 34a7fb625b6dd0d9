"""Deterministic discrete-event time for the fleet dispatcher.

`VirtualClock` is the clock of `repro.profiling.fleet`: coroutines
register as *participants*, and whenever every participant is parked in
``sleep()`` the clock wakes exactly one — the earliest ``(wake_time,
arrival_order)`` — and advances virtual time to it.  Scheduling
therefore depends only on the durations the dispatcher computes (which
are seeded), never on host load, so an entire fleet campaign with
stragglers, deadlines, and circuit-breaker cooldowns replays identically
on every machine.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from typing import List, Tuple

__all__ = ["VirtualClock"]


class VirtualClock:
    """Deterministic discrete-event time for asyncio coroutines.

    Every coroutine that may block on this clock must bracket its life
    with ``add_participant()`` / ``remove_participant()``.  ``sleep``
    parks the caller; once *all* registered participants are parked (or
    deregistered), the earliest sleeper is woken and ``now()`` jumps to
    its wake time.  Ties break on arrival order, so the interleaving is a
    pure function of the requested durations.

    The non-obvious invariant: a participant doing synchronous work
    between awaits blocks every advance (it is active, not sleeping),
    which is exactly the semantics of a single-threaded event loop — the
    virtual clock never runs ahead of computation it should have waited
    for.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._heap: List[Tuple[float, int, asyncio.Future]] = []
        self._seq = itertools.count()
        self._participants = 0
        self._sleeping = 0

    def now(self) -> float:
        return self._now

    def add_participant(self) -> None:
        self._participants += 1

    def remove_participant(self) -> None:
        if self._participants <= 0:
            raise RuntimeError("remove_participant without add_participant")
        self._participants -= 1
        self._maybe_advance()

    async def sleep(self, seconds: float) -> None:
        future = asyncio.get_running_loop().create_future()
        wake = self._now + max(0.0, float(seconds))
        heapq.heappush(self._heap, (wake, next(self._seq), future))
        self._sleeping += 1
        self._maybe_advance()
        await future

    def _maybe_advance(self) -> None:
        """Wake the earliest sleeper iff every participant is parked.

        Exactly one sleeper wakes per advance: its future resolves, the
        event loop runs it until its next await, and only then (when all
        participants are parked again) does time move on.
        """
        if not self._heap:
            return
        if self._participants == 0 or self._sleeping < self._participants:
            return
        wake, _, future = heapq.heappop(self._heap)
        self._now = max(self._now, wake)
        self._sleeping -= 1
        if not future.cancelled():
            future.set_result(None)
