"""`python -m benchmarks` reports a failed gate and runs the rest."""

from __future__ import annotations

import benchmarks.__main__ as harness


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
