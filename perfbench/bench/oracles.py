"""Result oracles. None of them calls code under test: kernel checksums
come from an independent generator (`rng.py`), bounds from their closed
form, and simulator counters from values pinned in `pins.json`.

Each check returns None when the reply is right, else a one-line reason.
"""

import json
import math
import os

from . import rng
from .workloads import spec_key

OMEGA_FAST = 2.807354922057604  # log2(7), to the last digit f64 holds
OMEGA_CLASSICAL = 3.0

PINS_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pins.json")

# The counters each pinned kind must repeat exactly.
PINNED_KEYS = {
    "io": ("io", "loads", "stores", "hits", "accesses", "bound"),
    "faults": ("matches", "clean_words", "total_words", "recovery_words", "crashes", "drops", "retries", "restores"),
    "sweep-cell": ("key", "io", "words", "flops", "bound"),
}
BOUND_KEYS = ("classical_seq", "fast_seq", "fast_par", "fast_par_mem_indep")


def load_pins(path=PINS_PATH):
    with open(path) as f:
        return json.load(f)


def sci3(value):
    """Rust's `{:.3e}` rendering, e.g. 2.147e9."""
    mantissa, exponent = f"{value:.3e}".split("e")
    return f"{mantissa}e{int(exponent)}"


def sequential_bound(n, m, omega):
    return (n / math.sqrt(m)) ** omega * m


def expected_bounds(n, m, p):
    out = {
        "classical_seq": sci3(sequential_bound(n, m, OMEGA_CLASSICAL)),
        "fast_seq": sci3(sequential_bound(n, m, OMEGA_FAST)),
    }
    if p > 1:
        dependent = sequential_bound(n, m, OMEGA_FAST) / p
        independent = n * n / p ** (2.0 / OMEGA_FAST)
        out["fast_par"] = sci3(max(dependent, independent))
        out["fast_par_mem_indep"] = sci3(independent)
    return out


class Oracle:
    """Checks replies for one run. Kernel checksums are computed once
    per (order, seed) and cached."""

    def __init__(self, pins):
        self.pins = pins
        self.checksums = {}

    def prepare(self, reqs):
        """Compute the kernel checksums `reqs` will need, ahead of the
        timed phase."""
        for req in reqs:
            if req.kind == "kernel":
                self.checksum(int(req.params["n"]), int(req.params["seed"]))

    def score(self, reqs, results):
        """Failures among `results` (a `(latency, reply)` or None per
        request) and the number of completed replies."""
        failures, completed = [], 0
        for req, res in zip(reqs, results):
            if res is None:
                failures.append(f"{req.id}: no reply")
                continue
            completed += res[1].get("status") == "completed"
            problem = self.check(req, res[1])
            if problem:
                failures.append(problem)
        return failures, completed

    def checksum(self, n, seed):
        key = (n, seed)
        if key not in self.checksums:
            self.checksums[key] = rng.product_checksum(n, seed)
        return self.checksums[key]

    def check(self, req, reply):
        if reply.get("id") != req.id:
            return f"reply id {reply.get('id')!r} for request {req.id}"
        if reply.get("status") != "completed":
            return f"{req.id}: status {reply.get('status')} ({reply.get('reason', '')})"
        result = reply.get("result", {})
        p = req.params
        if req.kind == "kernel":
            want = str(self.checksum(int(p["n"]), int(p["seed"])))
            if result.get("checksum") != want:
                return f"{req.id}: kernel checksum {result.get('checksum')} != {want}"
            return None
        if req.kind == "bounds":
            want = expected_bounds(int(p["n"]), int(p["m"]), int(p["p"]))
            # The router adds `shard`/`attempts`; only the bound keys count.
            got = {k: v for k, v in result.items() if k in BOUND_KEYS}
            if got != want:
                return f"{req.id}: bounds {got} != closed form {want}"
            return None
        pin = self.pins.get(spec_key(req.kind, p))
        if pin is None:
            return f"{req.id}: no pinned counters for {spec_key(req.kind, p)}"
        for key in PINNED_KEYS[req.kind]:
            if result.get(key) != pin[key]:
                return f"{req.id}: {req.kind} {key}={result.get(key)} != pinned {pin[key]}"
        return None


def check_drain(ack, completed_here):
    """The drain ack must balance (accepted == every terminal state) and
    account for exactly the jobs this client saw completed."""
    c = {k: int(v) for k, v in ack.get("result", {}).items() if v.isdigit()}
    terminal = sum(c.get(k, 0) for k in ("completed", "errored", "cancelled", "deadline_exceeded"))
    if ack.get("status") != "ok":
        return f"drain ack status {ack.get('status')}"
    if c.get("accepted") != terminal:
        return f"drain ack does not balance: accepted={c.get('accepted')} terminal={terminal}"
    if c.get("completed") != completed_here:
        return f"drain ack completed={c.get('completed')} but the client saw {completed_here}"
    return None


def check_hedges(fleet_stats):
    """Every launched hedge has exactly one outcome."""
    c = {k: int(v) for k, v in fleet_stats.get("result", {}).items() if v.isdigit()}
    outcomes = c.get("hedges_won", 0) + c.get("hedges_lost", 0) + c.get("hedges_cancelled", 0)
    if c.get("hedges_launched") != outcomes:
        return f"hedge law broken: launched={c.get('hedges_launched')} outcomes={outcomes}"
    return None
