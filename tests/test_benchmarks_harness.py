"""`python -m benchmarks` reports a failed gate and runs the rest, and
stamps each record with the revision it was taken at."""

from __future__ import annotations

import subprocess

import pytest

import benchmarks.__main__ as harness
from benchmarks import common


def test_failed_gate_does_not_stop_later_benches(monkeypatch, capsys, tmp_path):
    ran = []

    def gated(smoke, out_dir):
        ran.append("gated")
        raise AssertionError("speedup 4.70x below 5.0x")

    def later(smoke, out_dir):
        ran.append("later")
        payload = {"name": "later", "wall_s": 0.001, "per_item_us": 1.0}
        return tmp_path / "BENCH_later.json", payload

    monkeypatch.setattr(harness, "BENCHES", {"gated": gated, "later": later})
    assert harness.main([]) == 1
    assert ran == ["gated", "later"]
    out = capsys.readouterr().out
    assert "!! gated: gate failed: speedup 4.70x below 5.0x" in out
    assert "BENCH_later.json" in out


@pytest.mark.parametrize(
    "status, expected",
    [("", "abc1234"), (" M src/repro/hardware/simulator.py", "abc1234-dirty")],
    ids=["clean", "dirty"],
)
def test_git_rev_marks_an_uncommitted_tree(monkeypatch, status, expected):
    answers = {"rev-parse": "abc1234\n", "status": status + "\n"}

    def fake_run(cmd, **kwargs):
        return subprocess.CompletedProcess(cmd, 0, stdout=answers[cmd[3]])

    monkeypatch.setattr(common.subprocess, "run", fake_run)
    assert common.git_rev() == expected


def test_git_rev_outside_git(monkeypatch):
    def fake_run(cmd, **kwargs):
        return subprocess.CompletedProcess(
            cmd, 128, stdout="", stderr="fatal: not a git repository"
        )

    monkeypatch.setattr(common.subprocess, "run", fake_run)
    assert common.git_rev() == "unknown"
