"""Fault-tolerant device-fleet measurement: the async campaign dispatcher.

`FleetRunner` farms the batches of a `CampaignRunner` campaign out to N
simulated device *sessions* — think N flaky boards racked up for a HW-NAS
data-collection run.  Each session opens its own long-lived device handle
(a deep copy of the campaign device) and, when the device implements the
fleet fault model (`FaultyDevice.begin_fleet_session`), draws a seeded
per-session *straggler factor*: a straggler takes ``straggler_factor``
times the nominal wall-clock to return every batch it is handed, without
ever changing the measured bytes.

On top of that fault model sits the machinery real fleets need:

* **Deadline enforcement** — a dispatch whose simulated duration exceeds
  ``deadline_s`` is killed at the deadline, its results discarded, and the
  batch re-queued with seeded exponential backoff; a healthy session picks
  it up later and produces the *same bytes* it would have produced
  anywhere, because batch content depends only on ``(seed, batch,
  attempt)``.
* **Per-session circuit breakers** — ``BREAKER_THRESHOLD`` consecutive
  failures open a session's breaker; after ``breaker_cooldown_s`` it goes
  half-open and admits one probe dispatch; a session whose breaker opens
  ``BREAKER_MAX_OPENINGS`` times is permanently retired.
* **Quorum degradation** — the campaign never aborts while at least one
  session survives.  If survivors drop below the quorum
  (``ceil(quorum_fraction * sessions)``), batches completed from then on
  are flagged ``degraded`` in their manifest records and the
  `CampaignReport` carries a `FleetHealth` ledger with
  ``qc_passed=False``.  Zero survivors with work outstanding raises
  `CampaignError` whose message *is* the health ledger.

Determinism is inherited, not re-proven: `FleetRunner` subclasses
`CampaignRunner`, shares its fingerprint/manifest/shard layout (so a
killed fleet campaign can be resumed by a serial runner and vice versa),
and executes batches with the very same `_execute_batch`.  Scheduling
runs on a `VirtualClock` — a deterministic discrete-event clock — so the
health ledger, the dispatch order, and the simulated makespan are
reproducible too, not just the shard bytes.
"""

from __future__ import annotations

import asyncio
import copy
import heapq
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from .campaign import CampaignError, CampaignResult, CampaignRunner, _execute_batch
from .clock import VirtualClock
from .report import FleetHealth, SessionHealth

__all__ = ["CircuitBreaker", "DeviceSession", "FleetRunner"]

_SESSION_SLOT = 0x5E55  # namespace for per-session straggler streams
_REDISPATCH_SLOT = 0x12ED  # namespace for re-dispatch backoff jitter streams

BREAKER_THRESHOLD = 2  # consecutive failures that open a session's breaker
BREAKER_MAX_OPENINGS = 2  # openings after which a session is retired
# A batch that timed out on its (n + 1)-th dispatch waits, jittered,
# REDISPATCH_BACKOFF_S * REDISPATCH_BACKOFF_FACTOR**n simulated seconds.
REDISPATCH_BACKOFF_S = 1.0
REDISPATCH_BACKOFF_FACTOR = 2.0

# Circuit-breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"
RETIRED = "retired"


class CircuitBreaker:
    """Classic three-state breaker plus a terminal ``retired`` state.

    ``threshold`` consecutive failures trip it open; after ``cooldown_s``
    it half-opens and admits one probe; a probe failure re-opens it.  Once
    it has opened ``max_openings`` times the session is retired for good —
    a board that keeps timing out is not coming back mid-campaign.
    """

    def __init__(
        self, threshold: int = 2, cooldown_s: float = 60.0, max_openings: int = 2
    ):
        if threshold < 1:
            raise ValueError("breaker threshold must be >= 1")
        if cooldown_s < 0:
            raise ValueError("breaker cooldown must be >= 0")
        if max_openings < 1:
            raise ValueError("breaker max_openings must be >= 1")
        self.threshold = int(threshold)
        self.cooldown_s = float(cooldown_s)
        self.max_openings = int(max_openings)
        self.consecutive_failures = 0
        self.openings = 0
        self._state = CLOSED
        self._opened_at = 0.0

    def state(self, now: float) -> str:
        """Current state, promoting ``open`` to ``half_open`` after cooldown."""
        if self._state == OPEN and now - self._opened_at >= self.cooldown_s:
            self._state = HALF_OPEN
        return self._state

    def cooldown_remaining(self, now: float) -> float:
        return max(0.0, self._opened_at + self.cooldown_s - now)

    def record_success(self) -> None:
        self.consecutive_failures = 0
        if self._state != RETIRED:
            self._state = CLOSED

    def record_failure(self, now: float) -> str:
        """Register one failed dispatch; returns the resulting state."""
        self.consecutive_failures += 1
        tripped = (
            self._state == HALF_OPEN  # failed probe: straight back open
            or self.consecutive_failures >= self.threshold
        )
        if tripped and self._state != RETIRED:
            self.openings += 1
            self._state = RETIRED if self.openings >= self.max_openings else OPEN
            self._opened_at = now
        return self._state


@dataclass
class DeviceSession:
    """One long-lived device handle in the fleet, with its breaker and ledger."""

    id: int
    device: object
    straggler_factor: float
    breaker: CircuitBreaker
    health: SessionHealth = field(init=False)

    def __post_init__(self) -> None:
        self.health = SessionHealth(
            session=self.id, straggler_factor=self.straggler_factor
        )

    def snapshot(self, now: float) -> SessionHealth:
        """The ledger line with breaker state folded in."""
        self.health.breaker_state = self.breaker.state(now)
        self.health.consecutive_failures = self.breaker.consecutive_failures
        self.health.openings = self.breaker.openings
        return self.health


class FleetRunner(CampaignRunner):
    """Run a campaign across N device sessions under an async dispatcher.

    Accepts every `CampaignRunner` argument (``workers``/``mp_context``
    are ignored — the fleet *is* the parallelism) plus the fleet knobs
    documented in the module docstring.  ``nominal_batch_s`` is the
    simulated healthy-session wall-clock of one batch; ``contention``
    adds ``contention * (concurrent dispatches - 1)`` of relative
    slowdown, modelling shared-host interference.  The schedule runs on
    a `VirtualClock`, which makes it deterministic and free.
    """

    def __init__(
        self,
        device,
        configs,
        campaign_dir,
        references,
        *,
        sessions: int = 4,
        deadline_s: float = 30.0,
        nominal_batch_s: float = 1.0,
        contention: float = 0.0,
        breaker_cooldown_s: float = 60.0,
        quorum_fraction: float = 0.5,
        **kwargs,
    ):
        super().__init__(device, configs, campaign_dir, references, **kwargs)
        if sessions < 1:
            raise ValueError("a fleet needs at least one session")
        if deadline_s <= 0 or nominal_batch_s <= 0:
            raise ValueError("deadline_s and nominal_batch_s must be positive")
        if contention < 0:
            raise ValueError("contention must be >= 0")
        if not 0.0 < quorum_fraction <= 1.0:
            raise ValueError("quorum_fraction must be in (0, 1]")
        self.sessions = int(sessions)
        self.deadline_s = float(deadline_s)
        self.nominal_batch_s = float(nominal_batch_s)
        self.contention = float(contention)
        self.breaker_cooldown_s = float(breaker_cooldown_s)
        self.quorum_fraction = float(quorum_fraction)
        self.quorum = max(1, math.ceil(self.quorum_fraction * self.sessions))
        self._clock = VirtualClock()
        # Idle sessions poll for re-queued work at this (virtual) cadence.
        self._poll_s = min(1.0, self.deadline_s / 10.0)
        self.health: Optional[FleetHealth] = None  # ledger of the last run()

    # ------------------------------------------------------------------ #
    # Session lifecycle
    # ------------------------------------------------------------------ #

    def _open_session(self, session_id: int) -> DeviceSession:
        """Open one long-lived device session with a seeded straggler draw.

        The draw comes from ``default_rng([seed, _SESSION_SLOT, id])`` — a
        stream disjoint from every measurement stream — so which sessions
        straggle is reproducible, while the measured bytes stay identical
        to a serial run's.
        """
        device = copy.deepcopy(self.device)
        factor = 1.0
        if hasattr(device, "begin_fleet_session"):
            rng = np.random.default_rng([self.seed, _SESSION_SLOT, session_id])
            factor = float(device.begin_fleet_session(rng))
        return DeviceSession(
            id=session_id,
            device=device,
            straggler_factor=factor,
            breaker=CircuitBreaker(
                threshold=BREAKER_THRESHOLD,
                cooldown_s=self.breaker_cooldown_s,
                max_openings=BREAKER_MAX_OPENINGS,
            ),
        )

    def _surviving(self) -> int:
        now = self._clock.now()
        return sum(
            1 for s in self._sessions if s.breaker.state(now) != RETIRED
        )

    def _ledger(self) -> FleetHealth:
        now = self._clock.now()
        return FleetHealth(
            n_sessions=self.sessions,
            quorum=self.quorum,
            sessions=[s.snapshot(now) for s in self._sessions],
            redispatches=self._redispatches,
            degraded_batches=sorted(self._degraded_batches),
            makespan_s=round(now - self._t0, 6),
        )

    # ------------------------------------------------------------------ #
    # The dispatcher
    # ------------------------------------------------------------------ #

    def run(self, max_batches: Optional[int] = None) -> CampaignResult:
        """Run (or resume) the campaign across the fleet.

        Completes as long as one session survives; raises `CampaignError`
        carrying the full health ledger (``exc.health``) once every
        session has been retired with batches still outstanding.  Every
        batch committed before that point is durably on disk either way —
        a subsequent `FleetRunner` *or* `CampaignRunner` resume picks up
        exactly where the fleet fell over.
        """
        started = time.monotonic()
        manifest = self._load_or_init_manifest()
        pending = self._pending_batches(manifest, max_batches)
        self._committed = {}

        self._sessions: List[DeviceSession] = [
            self._open_session(i) for i in range(self.sessions)
        ]
        self._redispatches = 0
        self._degraded_batches: Set[int] = set()
        self._busy = 0
        self._t0 = self._clock.now()
        self._manifest = manifest
        self._remaining_after_dispatch: Set[int] = set()

        if pending:
            asyncio.run(self._dispatch(pending))

        self.health = self._ledger()
        report = self._report(manifest)
        report.fleet = self.health
        report.wall_clock_s = time.monotonic() - started
        report.save(self.store.report_path)

        if self._remaining_after_dispatch:
            message = (
                f"fleet campaign stalled with "
                f"{len(self._remaining_after_dispatch)} batch(es) outstanding "
                f"and no surviving sessions\n{self.health.describe()}"
            )
            error = CampaignError(message)
            error.health = self.health
            raise error

        return CampaignResult(dataset=self._assemble(), report=report)

    async def _dispatch(self, pending: Sequence[int]) -> None:
        self._remaining: Set[int] = set(pending)
        self._queue: List[Tuple[float, int, int, int]] = []
        self._qseq = itertools.count()
        now = self._clock.now()
        for index in pending:
            heapq.heappush(self._queue, (now, next(self._qseq), index, 0))
        # Register every session with the clock *before* the first worker
        # runs: otherwise the earliest worker's first sleep would satisfy
        # "all participants parked" and virtual time would advance before
        # the rest of the fleet had even started.
        for _ in self._sessions:
            self._clock.add_participant()
        workers = [
            asyncio.ensure_future(self._session_worker(session))
            for session in self._sessions
        ]
        await asyncio.gather(*workers)
        self._remaining_after_dispatch = set(self._remaining)

    def _pop_ready(self, now: float) -> Optional[Tuple[int, int]]:
        """The earliest queued ``(batch, prior_dispatches)`` due by ``now``."""
        if self._queue and self._queue[0][0] <= now:
            _, _, index, n_dispatch = heapq.heappop(self._queue)
            return index, n_dispatch
        return None

    async def _session_worker(self, session: DeviceSession) -> None:
        """One session's life: take work, respect the breaker, retire.

        The caller (`_dispatch`) has already registered this worker as a
        clock participant; the worker only deregisters itself on exit.
        """
        clock = self._clock
        try:
            while self._remaining:
                now = clock.now()
                state = session.breaker.state(now)
                if state == RETIRED:
                    return
                if state == OPEN:
                    await clock.sleep(
                        max(session.breaker.cooldown_remaining(now), self._poll_s)
                    )
                    continue
                item = self._pop_ready(now)
                if item is None:
                    if not self._remaining:
                        return
                    if self._queue:
                        # Work exists but its backoff has not elapsed.
                        delay = max(self._queue[0][0] - now, 0.0)
                        await clock.sleep(max(delay, 1e-9))
                    else:
                        # Everything is in flight elsewhere; poll in case a
                        # deadline kill re-queues a batch.
                        await clock.sleep(self._poll_s)
                    continue
                await self._dispatch_one(session, *item)
        finally:
            clock.remove_participant()

    async def _dispatch_one(
        self, session: DeviceSession, index: int, n_dispatch: int
    ) -> None:
        clock = self._clock
        health = session.health
        health.dispatches += 1
        contending = self._busy
        self._busy += 1
        try:
            duration = (
                self.nominal_batch_s
                * session.straggler_factor
                * (1.0 + self.contention * contending)
            )
            if duration > self.deadline_s:
                # The harness kills the dispatch at the deadline: nothing
                # is measured (the batch's RNG streams are untouched), the
                # batch goes back in the queue with backoff, the session
                # takes a breaker strike.
                await clock.sleep(self.deadline_s)
                health.timeouts += 1
                health.busy_s += self.deadline_s
                session.breaker.record_failure(clock.now())
                self._requeue(index, n_dispatch)
                return
            # The batch body is the exact function the serial path runs;
            # its QC backoffs are folded into simulated time rather than
            # slept for real.
            qc_sleeps: List[float] = []
            samples, record = _execute_batch(
                self._task(index), sleep=qc_sleeps.append
            )
            total = duration + sum(qc_sleeps)
            await clock.sleep(total)
            health.completions += 1
            health.busy_s += total
            session.breaker.record_success()
            record.session = session.id
            record.dispatches = n_dispatch + 1
            if self._surviving() < self.quorum:
                record.degraded = True
                self._degraded_batches.add(index)
            self._commit_batch(index, samples, record, self._manifest)
            self._remaining.discard(index)
        finally:
            self._busy -= 1

    def _requeue(self, index: int, n_dispatch: int) -> None:
        """Back a timed-out batch off and return it to the queue.

        The backoff jitter is seeded per ``(batch, dispatch)`` — the same
        discipline as the QC-retry jitter — so the re-dispatch schedule,
        and therefore the whole health ledger, replays identically.
        """
        self._redispatches += 1
        n = n_dispatch + 1
        backoff = REDISPATCH_BACKOFF_S * REDISPATCH_BACKOFF_FACTOR**n_dispatch
        u = np.random.default_rng(
            [self.seed, _REDISPATCH_SLOT, index + 1, n]
        ).random()
        backoff *= 1.0 + self.backoff_jitter * (2.0 * u - 1.0)
        heapq.heappush(
            self._queue,
            (self._clock.now() + backoff, next(self._qseq), index, n),
        )
