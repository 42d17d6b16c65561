"""The load generators: a closed loop (one request in flight) and an
open loop (seeded due times, a sender and a receiver thread sharing one
connection). Both return per-request results in request order,
`(latency_s, reply_dict)` or None for a lost reply, plus the wall time
of the timed phase.

Inside the timed phase the client only sends, receives and reads the
clock: replies are parsed afterwards and the garbage collector is off,
so the client's own pauses stay out of the latencies.
"""

import gc
import json
import sys
import threading
import time
from contextlib import contextmanager


@contextmanager
def quiet_client():
    switch = sys.getswitchinterval()
    gc.disable()
    # The sender must get the interpreter back promptly at a due time.
    sys.setswitchinterval(0.0001)
    try:
        yield
    finally:
        sys.setswitchinterval(switch)
        gc.enable()


def closed_loop(targets, reqs, route=None):
    """Send `reqs` one at a time. `targets` is a list of connections;
    `route(i)` picks the target index of request i (default 0)."""
    lines = [req.line() for req in reqs]
    raw = [None] * len(reqs)
    with quiet_client():
        t_start = time.perf_counter()
        for i, line in enumerate(lines):
            conn = targets[route(i) if route else 0]
            t = time.perf_counter()
            conn.send(line)
            reply = conn.recv()
            raw[i] = (time.perf_counter() - t, reply)
        wall = time.perf_counter() - t_start
    return [(lat, json.loads(reply)) for lat, reply in raw], wall


# Sleep wake-ups on a shared host can be milliseconds late, so the open
# loop's sender sleeps until this long before a due time and spins the rest.
SPIN_S = 0.003


def open_loop(targets, reqs, route=None):
    """Send each request at its due time and time it from that due time,
    so a stall counts against every request it delays. Returns
    (results, wall_s, send_lags_s) with one lag per request."""
    n = len(reqs)
    lines = [req.line() for req in reqs]
    routes = [route(i) if route else 0 for i in range(n)]
    received = [[] for _ in targets]
    lags = [0.0] * n
    errors = []

    def receive(t, expected):
        conn = targets[t]
        try:
            for _ in range(expected):
                reply = conn.recv()
                received[t].append((time.perf_counter(), reply))
        except Exception as e:  # surfaced after join
            errors.append(f"receiver {t}: {e}")

    with quiet_client():
        t0 = time.perf_counter() + 0.05
        receivers = [
            threading.Thread(target=receive, args=(t, routes.count(t))) for t in range(len(targets))
        ]
        for r in receivers:
            r.start()
        for i, line in enumerate(lines):
            due = t0 + reqs[i].due
            wait = due - time.perf_counter()
            if wait > SPIN_S:
                time.sleep(wait - SPIN_S)
            while time.perf_counter() < due:
                pass
            targets[routes[i]].send(line)
            lags[i] = time.perf_counter() - due
        for r in receivers:
            r.join()
        wall = time.perf_counter() - t0
    index = {req.id: i for i, req in enumerate(reqs)}
    out = [None] * n
    for got in received:
        for t_recv, raw in got:
            reply = json.loads(raw)
            i = index.get(reply.get("id"))
            if i is not None:
                out[i] = (t_recv - (t0 + reqs[i].due), reply)
    if errors:
        raise ConnectionError("; ".join(errors))
    return out, wall, lags
