"""`FleetRunner`: stragglers, deadlines, circuit breakers, quorum.

The load-bearing claim under test: no matter how the fleet schedule plays
out — which sessions straggle, which dispatches time out, which breakers
retire — the shards on disk are byte-identical to a serial
`CampaignRunner` on the same seed.  Everything else (the health ledger,
the makespan, the degradation flags) is bookkeeping *about* the schedule,
and must itself replay deterministically on the virtual clock.
"""

import asyncio
from pathlib import Path

import pytest

from repro import (
    CampaignError,
    CampaignReport,
    CampaignRunner,
    DeviceProfile,
    FaultPlan,
    FaultyDevice,
    FleetHealth,
    FleetRunner,
    MeasurementProtocol,
    RandomSampler,
    ReferenceSet,
    SimulatedDevice,
    VirtualClock,
    resnet_space,
)
from repro.profiling.fleet import CircuitBreaker

QUIET = DeviceProfile(
    name="quietsim",
    peak_flops=19.0e12,
    mem_bandwidth=384e9,
    cache_bytes=6e6,
    num_compute_units=48,
    wave_quantum=2_000_000,
    launch_overhead_s=3.5e-6,
    launch_exponent=0.74,
    cache_penalty=1.2,
    jitter_cv=0.004,
    outlier_prob=0.0,
    outlier_scale=0.1,
    warmup_factor=1.5,
    warmup_iters=3,
    session_sigma=0.002,
    throttle_prob=0.0,
    throttle_factor=1.0,
)

# The serial campaign's fault diet plus a fleet-level one: half the
# sessions come up as 10x stragglers (with campaign seed 42 and 4
# sessions, exactly sessions 0 and 1 draw the straggler fate).
FLEET_PLAN = FaultPlan(
    throttle_prob=0.35,
    throttle_factor=1.25,
    error_prob=0.03,
    timeout_prob=0.02,
    corrupt_prob=0.04,
    straggler_prob=0.5,
    straggler_factor=10.0,
)

PROTOCOL = MeasurementProtocol(runs=25)


@pytest.fixture(scope="module")
def spec():
    return resnet_space()


@pytest.fixture(scope="module")
def sweep_configs(spec):
    # 12 batches of 5: enough work that a straggler's half-open probe
    # still finds a queue to fail against, which is what retires it.
    return RandomSampler(spec, rng=1).sample_batch(60)


def make_runner(cls, campaign_dir, configs, spec, plan=FLEET_PLAN, **kwargs):
    device = FaultyDevice(SimulatedDevice(QUIET, seed=0), plan, seed=0)
    kwargs.setdefault("references", ReferenceSet.from_space(spec, k=2, rng=7))
    kwargs.setdefault("protocol", PROTOCOL)
    kwargs.setdefault("batch_size", 5)
    kwargs.setdefault("sleep", lambda s: None)
    return cls(device, configs, campaign_dir, seed=42, **kwargs)


def make_fleet(campaign_dir, configs, spec, **kwargs):
    kwargs.setdefault("sessions", 4)
    kwargs.setdefault("deadline_s", 2.0)
    kwargs.setdefault("nominal_batch_s", 1.0)
    kwargs.setdefault("breaker_cooldown_s", 2.0)
    return make_runner(FleetRunner, campaign_dir, configs, spec, **kwargs)


def shard_bytes(campaign_dir, n_batches):
    return [
        (Path(campaign_dir) / "shards" / f"batch-{i:04d}.json").read_bytes()
        for i in range(n_batches)
    ]


class TestVirtualClock:
    def run_coros(self, clock, *coros):
        async def main():
            for _ in coros:
                clock.add_participant()

            async def wrap(coro):
                try:
                    await coro
                finally:
                    clock.remove_participant()

            await asyncio.gather(*(wrap(c) for c in coros))

        asyncio.run(main())

    def test_sleeps_advance_virtual_time_in_order(self):
        clock = VirtualClock()
        events = []

        async def sleeper(name, delay):
            await clock.sleep(delay)
            events.append((name, clock.now()))

        self.run_coros(
            clock, sleeper("b", 2.0), sleeper("a", 1.0), sleeper("c", 3.0)
        )
        assert events == [("a", 1.0), ("b", 2.0), ("c", 3.0)]
        assert clock.now() == 3.0

    def test_ties_break_on_arrival_order(self):
        clock = VirtualClock()
        events = []

        async def sleeper(name):
            await clock.sleep(1.0)
            events.append(name)

        self.run_coros(clock, sleeper("first"), sleeper("second"))
        assert events == ["first", "second"]

    def test_sequential_sleeps_accumulate(self):
        clock = VirtualClock(start=100.0)

        async def seq():
            await clock.sleep(1.5)
            await clock.sleep(2.5)

        self.run_coros(clock, seq())
        assert clock.now() == 104.0

    def test_active_participant_blocks_the_advance(self):
        """Time must not jump while one coroutine is still computing."""
        clock = VirtualClock()
        seen = []

        async def busy_then_sleep():
            # Yield to the loop without sleeping on the virtual clock:
            # still "active", so the other sleeper must not have woken.
            for _ in range(3):
                await asyncio.sleep(0)
            seen.append(("busy-park", clock.now()))
            await clock.sleep(5.0)

        async def early_sleeper():
            await clock.sleep(1.0)
            seen.append(("woke", clock.now()))

        self.run_coros(clock, early_sleeper(), busy_then_sleep())
        assert seen == [("busy-park", 0.0), ("woke", 1.0)]

    def test_unbalanced_remove_raises(self):
        with pytest.raises(RuntimeError):
            VirtualClock().remove_participant()


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        b = CircuitBreaker(threshold=2, cooldown_s=10.0, max_openings=2)
        assert b.state(0.0) == "closed"
        b.record_failure(0.0)
        assert b.state(0.0) == "closed"
        b.record_failure(1.0)
        assert b.state(1.0) == "open"
        assert b.openings == 1

    def test_success_resets_the_failure_run(self):
        b = CircuitBreaker(threshold=2)
        b.record_failure(0.0)
        b.record_success()
        b.record_failure(1.0)
        assert b.state(1.0) == "closed"
        assert b.consecutive_failures == 1

    def test_half_open_after_cooldown_then_retired_on_failed_probe(self):
        b = CircuitBreaker(threshold=2, cooldown_s=10.0, max_openings=2)
        b.record_failure(0.0)
        b.record_failure(0.0)
        assert b.state(5.0) == "open"
        assert b.cooldown_remaining(5.0) == 5.0
        assert b.state(10.0) == "half_open"
        # A single failed probe re-trips immediately; second opening is
        # the last one this breaker gets.
        assert b.record_failure(10.0) == "retired"
        assert b.state(1e9) == "retired"

    def test_half_open_probe_success_closes(self):
        b = CircuitBreaker(threshold=2, cooldown_s=1.0, max_openings=5)
        b.record_failure(0.0)
        b.record_failure(0.0)
        assert b.state(2.0) == "half_open"
        b.record_success()
        assert b.state(2.0) == "closed"

    def test_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)
        with pytest.raises(ValueError):
            CircuitBreaker(cooldown_s=-1.0)
        with pytest.raises(ValueError):
            CircuitBreaker(max_openings=0)


class TestFleetByteIdentity:
    """The acceptance scenario: 4 sessions, 2 stragglers, 2 retirements —
    and not one byte of difference from the serial runner."""

    @pytest.fixture(scope="class")
    def campaigns(self, sweep_configs, spec, tmp_path_factory):
        root = tmp_path_factory.mktemp("identity")
        serial = make_runner(
            CampaignRunner, root / "serial", sweep_configs, spec
        )
        serial_result = serial.run()
        fleet = make_fleet(root / "fleet", sweep_configs, spec)
        fleet_result = fleet.run()
        return root, serial, serial_result, fleet, fleet_result

    def test_two_sessions_retired_two_survive(self, campaigns):
        _, _, _, fleet, _ = campaigns
        health = fleet.health
        assert health.n_sessions == 4 and health.quorum == 2
        assert health.retired == [0, 1]
        assert health.surviving == 2
        stragglers = [s for s in health.sessions if s.straggler]
        assert [s.session for s in stragglers] == [0, 1]
        assert all(s.straggler_factor == 10.0 for s in stragglers)
        # Every straggler dispatch hit the deadline; the survivors did
        # all the measuring.
        assert all(s.completions == 0 and s.timeouts >= 2 for s in stragglers)
        assert all(s.openings == 2 for s in stragglers)
        assert health.redispatches >= 4
        assert sum(s.completions for s in health.sessions) == fleet.n_batches

    def test_shards_byte_identical_to_serial(self, campaigns):
        root, serial, serial_result, fleet, fleet_result = campaigns
        assert serial.n_batches == fleet.n_batches == 12
        assert shard_bytes(root / "serial", 12) == shard_bytes(root / "fleet", 12)
        assert fleet_result.dataset == serial_result.dataset

    def test_not_degraded_above_quorum(self, campaigns):
        _, _, _, fleet, fleet_result = campaigns
        assert not fleet.health.degraded
        assert fleet.health.qc_passed
        assert fleet.health.degraded_batches == []
        assert not any(b.degraded for b in fleet_result.report.batches)

    def test_batch_records_carry_session_provenance(self, campaigns):
        _, _, _, fleet, fleet_result = campaigns
        batches = fleet_result.report.batches
        assert all(b.session in (2, 3) for b in batches)
        # Timed-out dispatches count: some batch needed more than one.
        assert all(b.dispatches >= 1 for b in batches)
        assert sum(b.dispatches for b in batches) == 12 + fleet.health.redispatches

    def test_ledger_round_trips_through_the_report_json(self, campaigns):
        _, _, _, fleet, _ = campaigns
        reloaded = CampaignReport.load(fleet.store.report_path)
        assert reloaded.fleet is not None
        assert reloaded.fleet.to_dict() == fleet.health.to_dict()
        clone = FleetHealth.from_dict(fleet.health.to_dict())
        assert clone.to_dict() == fleet.health.to_dict()
        # Serial reports stay fleet-free (and therefore byte-stable).
        _, serial, serial_result, _, _ = campaigns[:5]
        assert serial_result.report.fleet is None
        assert "fleet" not in serial_result.report.to_dict()

    def test_schedule_is_reproducible(self, campaigns, sweep_configs, spec, tmp_path):
        _, _, _, fleet, _ = campaigns
        again = make_fleet(tmp_path / "again", sweep_configs, spec)
        again.run()
        assert again.health.to_dict() == fleet.health.to_dict()
        assert again.health.makespan_s == fleet.health.makespan_s > 0

    def test_describe_names_every_session(self, campaigns):
        _, _, _, fleet, _ = campaigns
        text = fleet.health.describe()
        assert "2/4 sessions alive (quorum 2)" in text
        for s in fleet.health.sessions:
            assert f"session {s.session}:" in text
        assert text.count("straggler") == 2


class TestQuorumDegradation:
    def test_below_quorum_completes_flagged(self, sweep_configs, spec, tmp_path):
        """7 of 8 sessions retire; the campaign limps home on one board
        and every batch finished below quorum carries the flag."""
        runner = make_fleet(
            tmp_path / "fleet",
            sweep_configs[:30],
            spec,
            plan=FaultPlan(straggler_prob=0.95, straggler_factor=10.0),
            sessions=8,
        )
        result = runner.run()
        health = runner.health
        assert health.surviving == 1
        assert health.degraded and not health.qc_passed
        assert health.degraded_batches  # flagged, not dropped
        flagged = [b.index for b in result.report.batches if b.degraded]
        assert flagged == health.degraded_batches
        # Degradation is about fleet health, not data: bytes still match
        # a serial run exactly.
        serial = make_runner(
            CampaignRunner,
            tmp_path / "serial",
            sweep_configs[:30],
            spec,
            plan=FaultPlan(straggler_prob=0.95, straggler_factor=10.0),
        )
        serial.run()
        assert shard_bytes(tmp_path / "fleet", 6) == shard_bytes(
            tmp_path / "serial", 6
        )

    def test_zero_survivors_raises_with_the_ledger(
        self, sweep_configs, spec, tmp_path
    ):
        runner = make_fleet(
            tmp_path,
            sweep_configs[:30],
            spec,
            plan=FaultPlan(straggler_prob=1.0, straggler_factor=10.0),
            sessions=3,
        )
        with pytest.raises(CampaignError) as excinfo:
            runner.run()
        error = excinfo.value
        # The exception carries the machine-readable ledger...
        assert isinstance(error.health, FleetHealth)
        assert error.health.surviving == 0
        assert len(error.health.retired) == 3
        # ...and the human-readable one.
        message = str(error)
        assert "no surviving sessions" in message
        assert "0/3 sessions alive" in message
        assert "session 2: retired straggler" in message

    def test_stalled_fleet_is_resumable(self, sweep_configs, spec, tmp_path):
        """After a total fleet loss, a healthy fleet (or a serial runner)
        picks the campaign up from the durable manifest."""
        dead = make_fleet(
            tmp_path / "fleet",
            sweep_configs[:30],
            spec,
            plan=FaultPlan(straggler_prob=1.0, straggler_factor=10.0),
            sessions=2,
        )
        with pytest.raises(CampaignError):
            dead.run()
        healthy = make_fleet(
            tmp_path / "fleet",
            sweep_configs[:30],
            spec,
            plan=FaultPlan(),
        )
        healthy.run()
        assert healthy.complete
        serial = make_runner(
            CampaignRunner, tmp_path / "serial", sweep_configs[:30], spec,
            plan=FaultPlan(),
        )
        serial.run()
        assert shard_bytes(tmp_path / "fleet", 6) == shard_bytes(
            tmp_path / "serial", 6
        )


class TestFleetResume:
    def test_torn_write_recovery(self, sweep_configs, spec, tmp_path):
        """Kill window between shard write and manifest commit: the shard
        is on disk, the manifest never heard of it.  A resumed fleet must
        end byte-identical without re-measuring the batches the manifest
        does know about."""
        full = make_fleet(tmp_path / "full", sweep_configs, spec)
        full.run()
        before = shard_bytes(tmp_path / "full", 12)

        victim = make_fleet(tmp_path / "torn", sweep_configs, spec)
        victim.run()
        manifest = victim.store.load_manifest()
        del manifest["batches"]["7"]  # shard file stays: the torn write
        victim.store.save_manifest(manifest)

        resumed = make_fleet(tmp_path / "torn", sweep_configs, spec)
        result = resumed.run()
        assert resumed.complete
        assert shard_bytes(tmp_path / "torn", 12) == before
        # Only the torn batch was re-measured; the other 11 were
        # inherited from the manifest untouched.
        records = {b.index: b for b in result.report.batches}
        assert [i for i, b in sorted(records.items()) if not b.resumed] == [7]
        assert sum(s.dispatches for s in resumed.health.sessions) >= 1

    def test_fleet_resumes_a_serial_campaign_and_vice_versa(
        self, sweep_configs, spec, tmp_path
    ):
        """Same fingerprint, same manifest, same shards: the two runners
        are interchangeable mid-campaign."""
        serial_ref = make_runner(
            CampaignRunner, tmp_path / "ref", sweep_configs, spec
        )
        serial_ref.run()
        reference = shard_bytes(tmp_path / "ref", 12)

        # Serial start, fleet finish.
        make_runner(
            CampaignRunner, tmp_path / "mix", sweep_configs, spec
        ).run(max_batches=3)
        mixed = make_fleet(tmp_path / "mix", sweep_configs, spec)
        mixed_result = mixed.run()
        assert mixed.complete
        assert shard_bytes(tmp_path / "mix", 12) == reference
        resumed_flags = [b.resumed for b in mixed_result.report.batches]
        assert resumed_flags == [True] * 3 + [False] * 9

        # Fleet start, serial finish.
        make_fleet(tmp_path / "mix2", sweep_configs, spec).run(max_batches=5)
        tail = make_runner(CampaignRunner, tmp_path / "mix2", sweep_configs, spec)
        tail.run()
        assert tail.complete
        assert shard_bytes(tmp_path / "mix2", 12) == reference

    def test_nothing_pending_still_reports_health(
        self, sweep_configs, spec, tmp_path
    ):
        make_fleet(tmp_path, sweep_configs[:10], spec).run()
        rerun = make_fleet(tmp_path, sweep_configs[:10], spec)
        result = rerun.run()
        assert rerun.health is not None
        assert rerun.health.makespan_s == 0.0
        assert all(b.resumed for b in result.report.batches)


class TestFleetAssembly:
    """The fleet assembles its result through the campaign's helper: the
    batches it commits come from memory, inherited ones from disk."""

    def test_fleet_run_reads_no_shard(
        self, sweep_configs, spec, tmp_path, shard_reads, assert_matches_shards
    ):
        fleet = make_fleet(tmp_path / "fleet", sweep_configs, spec)
        result = fleet.run()
        assert fleet.health.redispatches >= 1
        assert shard_reads == []
        assert len(result.dataset) == 12 * 7
        assert_matches_shards(result, fleet)
        serial = make_runner(CampaignRunner, tmp_path / "ref", sweep_configs, spec)
        assert result.dataset == serial.run().dataset

    def test_fleet_resume_reads_only_inherited_shards(
        self, sweep_configs, spec, tmp_path, shard_reads, assert_matches_shards
    ):
        make_runner(CampaignRunner, tmp_path, sweep_configs, spec).run(
            max_batches=3
        )
        assert shard_reads == []
        fleet = make_fleet(tmp_path, sweep_configs, spec)
        result = fleet.run()
        assert shard_reads == [0, 1, 2]
        assert_matches_shards(result, fleet)


class TestFleetGuards:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sessions": 0},
            {"deadline_s": 0.0},
            {"nominal_batch_s": -1.0},
            {"contention": -0.5},
            {"quorum_fraction": 0.0},
            {"quorum_fraction": 1.5},
        ],
    )
    def test_constructor_validation(self, sweep_configs, spec, tmp_path, kwargs):
        with pytest.raises(ValueError):
            make_fleet(tmp_path, sweep_configs[:5], spec, **kwargs)

    def test_quorum_rounds_up(self, sweep_configs, spec, tmp_path):
        runner = make_fleet(
            tmp_path, sweep_configs[:5], spec, sessions=5, quorum_fraction=0.5
        )
        assert runner.quorum == 3

    def test_fleet_knobs_do_not_enter_the_fingerprint(
        self, sweep_configs, spec, tmp_path
    ):
        serial = make_runner(CampaignRunner, tmp_path / "a", sweep_configs, spec)
        fleet = make_fleet(tmp_path / "b", sweep_configs, spec, sessions=7)
        assert serial.fingerprint() == fleet.fingerprint()

    def test_contention_slows_concurrent_dispatches(
        self, sweep_configs, spec, tmp_path
    ):
        """Shared-host interference stretches the makespan but, like every
        other fleet knob, never the bytes."""
        calm = make_fleet(
            tmp_path / "calm", sweep_configs[:20], spec,
            plan=FaultPlan(), deadline_s=50.0,
        )
        calm.run()
        contended = make_fleet(
            tmp_path / "cont", sweep_configs[:20], spec,
            plan=FaultPlan(), deadline_s=50.0, contention=0.5,
        )
        contended.run()
        assert contended.health.makespan_s > calm.health.makespan_s
        assert shard_bytes(tmp_path / "calm", 4) == shard_bytes(
            tmp_path / "cont", 4
        )
