"""The repeat loops' time limits: a slow host gets fewer units, not a kill."""

import time

import pytest

import common
from common import Outcome, repeat_for


@pytest.fixture(autouse=True)
def no_hard_stop():
    yield
    common.HARD_STOP = float("inf")


def test_min_repeats_hold_before_the_hard_stop():
    out = Outcome()
    units = repeat_for(0, lambda i: i, out, min_repeats=3)
    assert [u.value for u in units] == [0, 1, 2]
    assert out.attempted == 3


def test_hard_stop_cuts_min_repeats_but_keeps_two_units():
    common.HARD_STOP = time.perf_counter() - 1.0
    out = Outcome()
    units = repeat_for(10, lambda i: i, out, min_repeats=3)
    assert [u.value for u in units] == [0, 1]
    assert out.attempted == 2
    single = repeat_for(10, lambda i: i, Outcome(), min_repeats=1)
    assert [u.value for u in single] == [0]


def test_hard_stop_reached_mid_run_stops_the_next_unit():
    def unit(i):
        if i == 2:
            common.HARD_STOP = time.perf_counter()
        return i

    out = Outcome()
    units = repeat_for(10, unit, out, min_repeats=5)
    assert [u.value for u in units] == [0, 1, 2]
