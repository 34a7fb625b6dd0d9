"""Span bookkeeping: nesting, self time, per-name and per-layer totals."""

import asyncio
import itertools

import pytest

from tracing import END, PARENT, START, Tracer, by_name, install, layer_self, self_times


def span(name, start, end, parent=None):
    return [name, start, end, parent, None]


class TestSelfTime:
    def test_leaf_self_time_is_its_duration(self):
        assert self_times([span("a.x", 1.0, 3.0)]) == [2.0]

    def test_children_are_subtracted(self):
        spans = [
            span("core.run", 0.0, 10.0),
            span("predictors.fit", 1.0, 4.0, parent=0),
            span("data.save", 5.0, 6.0, parent=0),
            span("predictors.fit", 1.5, 2.0, parent=1),  # grandchild
        ]
        assert self_times(spans) == pytest.approx([6.0, 2.5, 1.0, 0.5])

    def test_overlapping_children_count_once(self):
        # Two concurrent (asyncio) children covering 2..6 together.
        spans = [
            span("serve.batch", 0.0, 10.0),
            span("encodings.encode", 2.0, 5.0, parent=0),
            span("predictors.predict", 4.0, 6.0, parent=0),
        ]
        assert self_times(spans)[0] == pytest.approx(6.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [span("a.x", 0.0, 1.0), span("b.y", 0.5, 3.0, parent=0)]
        assert self_times(spans)[0] == pytest.approx(0.5)

    def test_layer_totals_sum_to_root_duration(self):
        spans = [
            span("core.run", 0.0, 10.0),
            span("predictors.fit", 1.0, 4.0, parent=0),
            span("predictors.fit", 1.5, 2.0, parent=1),
            span("data.save", 5.0, 6.0, parent=0),
        ]
        layers = layer_self(spans)
        assert layers == pytest.approx({"core": 6.0, "predictors": 3.0, "data": 1.0})
        assert sum(layers.values()) == pytest.approx(10.0)

    def test_nested_same_name_calls_are_not_top_level(self):
        spans = [
            span("predictors.fit", 0.0, 10.0),
            span("predictors.fit", 1.0, 2.0, parent=0),
            span("encodings.encode", 2.0, 3.0, parent=0),
            span("predictors.fit", 2.2, 2.4, parent=2),
            span("predictors.fit", 11.0, 12.0),
        ]
        fits = by_name(spans)["predictors.fit"]
        assert fits["calls"] == 4
        assert fits["top_calls"] == 2
        assert fits["self_s"] == pytest.approx(10.0 - 2.0 + 1.0 + 0.2 + 1.0)


class TestTracer:
    def fake_clock(self):
        ticks = itertools.count()
        return lambda: float(next(ticks))

    def test_wrapped_calls_nest(self):
        tracer = Tracer(clock=self.fake_clock())
        inner = tracer.wrap(lambda: None, "b.inner")
        outer = tracer.wrap(lambda: inner(), "a.outer")
        outer()
        assert [s[0] for s in tracer.spans] == ["a.outer", "b.inner"]
        assert tracer.spans[1][PARENT] == 0
        assert tracer.spans[0][PARENT] is None
        assert all(s[END] > s[START] for s in tracer.spans)

    def test_span_closes_when_the_call_raises(self):
        tracer = Tracer(clock=self.fake_clock())

        def boom():
            raise ValueError("x")

        with pytest.raises(ValueError):
            tracer.wrap(boom, "a.boom")()
        assert tracer.spans[0][END] is not None
        assert tracer.current.get() is None

    def test_async_wrap_keeps_tasks_apart(self):
        tracer = Tracer()

        async def leaf():
            await asyncio.sleep(0)

        traced_leaf = tracer.wrap(leaf, "b.leaf")

        async def request(rid):
            tracer.request_id.set(rid)
            await traced_leaf()

        traced_request = tracer.wrap(request, "a.request")

        async def main():
            await asyncio.gather(traced_request(1), traced_request(2))

        asyncio.run(main())
        leaves = [s for s in tracer.spans if s[0] == "b.leaf"]
        assert {tracer.spans[s[PARENT]][0] for s in leaves} == {"a.request"}
        assert sorted(s[4] for s in leaves) == [1, 2]

    def test_counts_use_the_boundary_arguments(self):
        tracer = Tracer()
        encode = tracer.wrap(lambda self, configs, spec: None, "encodings.encode",
                             count=lambda args: len(args[1]))
        encode(None, [1, 2, 3], None)
        encode(None, [4], None)
        assert tracer.counts["encodings.encode"] == 4


def test_install_wraps_layer_entry_points_and_undoes():
    import repro.core.loop as loop_module
    from repro.metrics import failing_bins

    tracer = Tracer()
    uninstall = install(tracer)
    try:
        assert loop_module.failing_bins is not failing_bins
        assert loop_module.failing_bins({0: 50.0, 1: 99.0}, 90.0) == [0]
    finally:
        uninstall()
    assert loop_module.failing_bins is failing_bins
    assert [s[0] for s in tracer.spans] == ["metrics.eval"]
