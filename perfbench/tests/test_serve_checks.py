"""The serve workload's reply checks, on hand-made phase results."""

import numpy as np

from common import Outcome
from loadgen import PhaseResult
from serve_workload import SWAP_GRACE_S, SWAPPED, ServeWorkload

OTHER = 1 - SWAPPED
SWAP_AT = 10.0


def workload(tmp_path):
    ws = ServeWorkload("serve", 0, tmp_path)
    ws.expected = {
        (SWAPPED, 1): np.array([1.0]),
        (SWAPPED, 2): np.array([2.0]),
        (OTHER, 1): np.array([3.0]),
    }
    ws.swap_time = SWAP_AT
    return ws


def validate(ws, picks, replied, versions):
    values = {(k, v): ws.expected[(k, v)][0] for k, v in ws.expected}
    replies = [
        {"id": i, "model_version": v, "latency_s": values[(k, v)]}
        for i, ((k, _), v) in enumerate(zip(picks, versions))
    ]
    result = PhaseResult(
        due=[0.0] * len(picks), sent=[0.0] * len(picks),
        replied=replied, replies=replies, stray=0, cpu_s=0.0,
    )
    out = Outcome()
    ws._validate(picks, result, out, swap_at=None)
    return ws.mismatched


def test_versions_that_follow_the_swap_pass(tmp_path):
    ws = workload(tmp_path)
    late = SWAP_AT + SWAP_GRACE_S + 0.1
    picks = [(SWAPPED, 0), (SWAPPED, 0), (SWAPPED, 0), (OTHER, 0)]
    # v1 before the swap; either version inside the grace; v2 after it.
    assert validate(ws, picks, [SWAP_AT - 1, SWAP_AT + 0.1, late, late], [1, 1, 2, 1]) == 0


def test_stale_version_after_the_swap_is_caught(tmp_path):
    ws = workload(tmp_path)
    late = SWAP_AT + SWAP_GRACE_S + 0.1
    # A version-1 answer for the swapped key long after the swap: an LRU
    # entry that outlived the model it came from.
    assert validate(ws, [(SWAPPED, 0)], [late], [1]) == 1


def test_new_version_before_the_swap_is_caught(tmp_path):
    ws = workload(tmp_path)
    assert validate(ws, [(SWAPPED, 0)], [SWAP_AT - 1], [2]) == 1
