"""Open-loop JSON-lines load generator for the prediction server.

One process drives a few TCP connections.  Requests are pre-serialised
lines sent on a schedule of due times fixed before the phase starts,
whatever the server's progress (open loop).  Each request is timed from
its due time to its reply; the send time is kept too, so the generator's
own lateness can be reported apart.

The sender sleeps with ``time.sleep``, which wakes within tens of
microseconds of the due time; an asyncio loop would wait in ``epoll``,
whose millisecond timeouts made the sender up to 1 ms late (0.76 ms at
the median), a large share of a 2 ms request latency.  Each connection
has its own reader thread, blocked in ``recv`` until a reply arrives, so
replies are stamped when they land, also while the sender waits.
"""

from __future__ import annotations

import gc
import json
import socket
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

REPLY_TIMEOUT_S = 10.0  # after the last send; unanswered requests fail
START_DELAY_S = 0.005


@dataclass
class PhaseResult:
    due: List[float]  # absolute perf_counter times
    sent: List[float]
    replied: List[Optional[float]]
    replies: List[Optional[dict]]
    stray: int  # replies whose id matched no request of the phase
    cpu_s: float  # the generator's own CPU time over the phase


def connect(host: str, port: int) -> socket.socket:
    sock = socket.create_connection((host, port))
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def run_phase(
    host: str,
    port: int,
    lines: Sequence[bytes],
    offsets: Sequence[float],
    *,
    first_id: int,
    connections: int = 2,
    events: Optional[Dict[int, Callable[[], None]]] = None,
) -> PhaseResult:
    """Send ``lines[i]`` at ``offsets[i]`` seconds after the phase starts.

    Request ``i`` must carry id ``first_id + i``.  ``events[i]`` runs just
    before request ``i`` is sent (e.g. a model file overwrite).
    The generator's own garbage collection is paused for the phase, so
    its pauses are not charged to the server.
    """
    events = events or {}
    n = len(lines)
    sent: List[float] = [0.0] * n
    replied: List[Optional[float]] = [None] * n
    replies: List[Optional[dict]] = [None] * n
    counts = {"stray": 0, "answered": 0}
    lock = threading.Lock()
    all_answered = threading.Event()
    clock = time.perf_counter

    def read_replies(sock: socket.socket) -> None:
        with sock.makefile("rb") as stream:
            try:
                for line in stream:
                    now = clock()
                    reply = json.loads(line)
                    index = reply.get("id")
                    with lock:
                        if (
                            isinstance(index, int)
                            and 0 <= index - first_id < n
                            and replied[index - first_id] is None
                        ):
                            replied[index - first_id] = now
                            replies[index - first_id] = reply
                            counts["answered"] += 1
                            if counts["answered"] == n:
                                all_answered.set()
                        else:
                            counts["stray"] += 1
            except OSError:
                pass  # the socket was shut down at the end of the phase

    socks: List[socket.socket] = []
    readers: List[threading.Thread] = []
    gc.collect()
    gc.disable()
    cpu_start = time.process_time()
    try:
        for _ in range(connections):
            socks.append(connect(host, port))
            readers.append(threading.Thread(target=read_replies, args=(socks[-1],)))
            readers[-1].start()
        start = clock() + START_DELAY_S
        due = [start + t for t in offsets]
        for i, line in enumerate(lines):
            delay = due[i] - clock()
            if delay > 0:
                time.sleep(delay)
            event = events.get(i)
            if event is not None:
                event()
            socks[i % connections].sendall(line)
            sent[i] = clock()
        all_answered.wait(REPLY_TIMEOUT_S)  # missing replies count as failures
    finally:
        gc.enable()
        for sock in socks:
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for reader in readers:
            reader.join()
        for sock in socks:
            sock.close()
    cpu_s = time.process_time() - cpu_start
    return PhaseResult(due, sent, replied, replies, counts["stray"], cpu_s)


def request(host: str, port: int, payload: dict) -> dict:
    """One request on its own connection (the ``stats`` op)."""
    with connect(host, port) as sock, sock.makefile("rb") as stream:
        sock.sendall(json.dumps(payload).encode() + b"\n")
        return json.loads(stream.readline())
