"""Run the ``python -m repro.serve`` entry point, optionally traced.

Usage::

    python3 perfbench/serve_main.py [--trace-out FILE] -- <repro.serve args>

With ``--trace-out`` the layer shims of `tracing` are installed, plus
three serve-specific ones: each request's id is taken from the line the
JSON-lines front end parses (so spans of one request share it), every
`PredictionServer.predict` call is a ``serve.predict`` span, and each
micro-batch flush is a ``serve.batch`` span preceded by one
``serve.queue`` span per item (submit to flush).  The spans are written
to FILE when the server stops (SIGTERM or SIGINT).
"""

from __future__ import annotations

import json
import signal
import sys
from collections import defaultdict, deque
from pathlib import Path


def install_serve_shims(tracer) -> None:
    import repro.serve.server as server_module
    from repro.serve.batcher import MicroBatcher
    from repro.serve.server import PredictionServer

    class TaggingJSON:
        """``json`` for the front end: ``loads`` tags the request's context."""

        dumps = staticmethod(json.dumps)
        JSONDecodeError = json.JSONDecodeError

        @staticmethod
        def loads(line):
            request = json.loads(line)
            if isinstance(request, dict):
                # The handler spawns the request's task right after parsing;
                # the task copies this context, so its spans carry the id.
                tracer.request_id.set(request.get("id"))
            return request

    server_module.json = TaggingJSON
    PredictionServer.predict = tracer.wrap(PredictionServer.predict, "serve.predict")

    queued = defaultdict(deque)  # (batcher, key) -> (submit time, request id)
    submit = MicroBatcher.submit
    init = MicroBatcher.__init__

    def traced_submit(self, key, item):
        queued[(id(self), key)].append((tracer.clock(), tracer.request_id.get()))
        return submit(self, key, item)

    def traced_init(self, flush_fn, **kwargs):
        def traced_flush(key, items):
            now = tracer.clock()
            waiting = queued[(id(self), key)]
            for _ in items:
                started, rid = waiting.popleft()
                tracer.record("serve.queue", started, now, rid=rid)
            index, token = tracer.begin("serve.batch", root=True)
            try:
                return flush_fn(key, items)
            finally:
                tracer.end(index, token)

        init(self, traced_flush, **kwargs)

    MicroBatcher.submit = traced_submit
    MicroBatcher.__init__ = traced_init


def main(argv) -> int:
    trace_out = None
    if argv[:1] == ["--trace-out"]:
        trace_out, argv = Path(argv[1]), argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    # SIGTERM stops the server like Ctrl-C, even when SIGINT was inherited
    # as ignored (a background job of a non-interactive shell).
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    from repro.serve.__main__ import main as serve_main

    if trace_out is None:
        return serve_main(argv)
    from tracing import Tracer, install

    tracer = Tracer()
    install(tracer)
    install_serve_shims(tracer)
    try:
        return serve_main(argv)
    finally:
        tracer.write_jsonl(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
