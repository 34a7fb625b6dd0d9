"""The benchmark's arithmetic: percentiles, open-loop accounting, backlog."""

import math

import numpy as np
import pytest

from stats import (
    due_latencies,
    growing_backlog,
    lateness,
    max_passing_rate,
    percentile,
    poisson_offsets,
    probe_holds,
    rate_grid,
    samples_beyond,
    summarize,
    tail_percentile,
)


class TestPercentileRule:
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        assert percentile(values, 50) == 50
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100
        assert percentile([7.0], 99) == 7.0

    def test_samples_beyond(self):
        assert samples_beyond(1000, 99.0) == 10
        assert samples_beyond(1000, 99.5) == 5
        assert samples_beyond(20, 50.0) == 10

    @pytest.mark.parametrize(
        "n, expected",
        [(19, None), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0),
         (200, 95.0), (999, 95.0), (1000, 99.0), (2000, 99.5), (10000, 99.9)],
    )
    def test_highest_percentile_with_ten_beyond(self, n, expected):
        assert tail_percentile(n) == expected

    def test_tail_always_has_ten_samples_beyond(self):
        for n in range(20, 3000, 37):
            values = list(range(n))
            pct = tail_percentile(n)
            beyond = sum(v > percentile(values, pct) for v in values)
            assert beyond >= 10

    def test_summarize_reports_count(self):
        summary = summarize([float(x) for x in range(1000)])
        assert summary["n"] == 1000
        assert summary["median"] == 499.5
        assert summary["tail_pct"] == 99.0
        assert summary["tail"] == 989.0

    def test_summarize_small_sample_has_no_tail(self):
        summary = summarize([1.0, 2.0, 3.0])
        assert summary["tail_pct"] is None and summary["tail"] is None


class TestOpenLoopAccounting:
    def test_latency_runs_from_due_time(self):
        # The generator stalled for 1.5 s before the second send: that
        # stall is charged to the second and third requests.
        due = [0.0, 1.0, 2.0]
        sent = [0.0, 2.5, 2.6]
        replied = [0.1, 2.6, 2.7]
        assert due_latencies(due, replied) == pytest.approx([0.1, 1.6, 0.7])
        assert lateness(due, sent) == pytest.approx([0.0, 1.5, 0.6])

    def test_early_send_is_not_negative_lateness(self):
        assert lateness([1.0], [0.999]) == [0.0]

    def test_missing_reply_is_infinite(self):
        assert math.isinf(due_latencies([0.0], [None])[0])

    def test_poisson_schedule_is_seeded_and_increasing(self):
        a = poisson_offsets(1000.0, 500, np.random.default_rng(3))
        b = poisson_offsets(1000.0, 500, np.random.default_rng(3))
        assert a == b
        assert all(x < y for x, y in zip(a, a[1:]))
        assert a[-1] == pytest.approx(0.5, rel=0.2)


class TestBacklog:
    def test_flat_latency_is_no_backlog(self):
        assert not growing_backlog([0.002] * 400, threshold_s=0.010)

    def test_latency_ramp_is_a_growing_backlog(self):
        ramp = [0.001 + 0.0001 * i for i in range(400)]  # 1 ms -> 41 ms
        assert growing_backlog(ramp, threshold_s=0.010)

    def test_one_slow_burst_in_the_middle_is_not_growth(self):
        values = [0.002] * 400
        values[150:250] = [0.050] * 100
        assert not growing_backlog(values, threshold_s=0.010)

    def test_unanswered_tail_is_growth(self):
        values = [0.002] * 300 + [math.inf] * 100
        assert growing_backlog(values, threshold_s=0.010)

    def test_probe_holds_needs_tail_limit_and_no_backlog(self):
        limit = 0.020
        assert probe_holds([0.003] * 1000, limit)
        spiky = [0.003] * 980 + [0.050] * 20  # p99 over the limit
        assert not probe_holds(spiky, limit)
        ramp = [0.001 + 0.000015 * i for i in range(1000)]  # p99 < 20 ms, growing
        assert percentile(ramp, 99.0) < limit
        assert not probe_holds(ramp, limit)
        assert not probe_holds([0.003] * 999 + [math.inf], limit)


class TestMaxRate:
    def test_grid_is_fixed_and_geometric(self):
        grid = rate_grid(250.0, 16000.0, 1.1)
        assert grid[0] == 250.0 and grid[-1] <= 16000.0
        assert all(1.05 < b / a < 1.15 for a, b in zip(grid, grid[1:]))
        assert rate_grid(250.0, 16000.0, 1.1) == grid

    @pytest.mark.parametrize("capacity", [260.0, 1000.0, 4321.0, 15999.0])
    def test_bisection_finds_highest_holding_rate(self, capacity):
        grid = rate_grid(250.0, 16000.0, 1.1)
        probed = []

        def holds(rate):
            probed.append(rate)
            return rate <= capacity

        best = max_passing_rate(grid, holds)
        assert best == max(r for r in grid if r <= capacity)
        assert len(probed) <= math.ceil(math.log2(len(grid) + 1))

    def test_nothing_holds(self):
        assert max_passing_rate([1.0, 2.0, 3.0], lambda r: False) is None

    def test_everything_holds(self):
        assert max_passing_rate([1.0, 2.0, 3.0], lambda r: True) == 3.0
