#!/usr/bin/env python3
"""perfbench — the repository's end-to-end benchmark.

    python3 perfbench/run.py --workload fleet-rpc|kernel-mm|sim-open \\
        --seed N --seconds S --trace 0|1

Run from the root of a fastmm checkout. Builds the release `fastmm`
binary and the `perfprobe` helper (into $CARGO_TARGET_DIR, default
.bench_build), starts the real server processes, drives the workload
from this one client process, checks every reply with an oracle that
does not call the code under test, and prints one JSON object as the
last line of stdout:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

--trace 0 reports the end-to-end metrics of the chosen workload;
--trace 1 runs the layer split of all three workloads (see
perfbench/NOTES.md) and reports the per-layer metrics. Exit status is 1
when any oracle fails, 2 when the benchmark cannot run at all.

    python3 perfbench/run.py --write-pins

regenerates perfbench/pins.json from the current build.
"""

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench import oracles, stats, traced  # noqa: E402
from bench.client import closed_loop, open_loop  # noqa: E402
from bench.servers import Cluster, Conn  # noqa: E402
from bench.workloads import WORKLOADS, generate, pinned_specs, spec_key  # noqa: E402

# Server start-ups timed per run; setup_s is their median.
SETUPS = 9
# An open-loop run whose sender was later than this at p99 fell behind:
# it is flagged, not scored. (Sleep wake-ups here are 2-6 ms late at p99.)
MAX_SEND_LAG_P99_S = 0.010


class Fatal(Exception):
    """The benchmark cannot run (exit 2, no result line)."""


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Build both binaries; returns (fastmm, perfprobe) paths."""
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        raise Fatal("run from the root of a fastmm checkout (no Cargo.toml/crates here)")
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    for extra in (["--bin", "fastmm"], ["--manifest-path", "perfbench/probe/Cargo.toml"]):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            raise Fatal(f"build failed: {' '.join(cmd)}")
    release = os.path.join(os.path.abspath(target), "release")
    return os.path.join(release, "fastmm"), os.path.join(release, "perfprobe")


def calib_ms():
    """A fixed single-thread loop; its time tracks the host's speed."""
    t = time.perf_counter()
    x = 0
    for i in range(300_000):
        x += i * i
    return (time.perf_counter() - t) * 1e3


def probe(exe, *args):
    out = subprocess.run([exe, *args], capture_output=True, text=True)
    if out.returncode != 0:
        raise Fatal(f"perfprobe {' '.join(args)}: {out.stderr.strip()}")
    return [json.loads(line) for line in out.stdout.splitlines() if line.strip()]


def start_cluster(exe, workload, seed, setups=SETUPS):
    """Start the workload's servers `setups` times, keeping the last;
    returns (cluster, median start-up seconds). The idle start-ups are
    killed: only the measured cluster's drain is checked."""
    times = []
    for i in range(setups):
        cluster = Cluster(exe, workload, seed)
        try:
            times.append(cluster.start())
        except Exception:
            cluster.kill()
            raise
        if i < setups - 1:
            cluster.kill()
    return cluster, stats.median(times)


def drive(workload, cluster, reqs, closed=False):
    """Run `reqs` against the cluster's front door; returns
    (results, wall_s, send_lags_s or None)."""
    conn = Conn(cluster.front)
    try:
        if workload.loop == "open" and not closed:
            return open_loop([conn], reqs)
        results, wall = closed_loop([conn], reqs)
        return results, wall, None
    finally:
        conn.close()


def run_e2e(exe, workload, seed, seconds):
    oracle = oracles.Oracle(oracles.load_pins())
    reqs = generate(workload, seed, workload.count(seconds))
    warm = generate(workload, seed, 2 * len(workload.weights), prefix="w")
    oracle.prepare(reqs + warm)  # driver-side input generation, before set-up
    cluster, setup_s = start_cluster(exe, workload, seed)
    try:
        warm_results = drive(workload, cluster, warm, closed=True)[0]
        results, wall, lags = drive(workload, cluster, reqs)
        rss = cluster.rss_peak_mb()
        failures, completed = oracle.score(warm + reqs, warm_results + results)
        if cluster.router:
            failures += filter(None, [oracles.check_hedges(cluster.stats(cluster.router, "fleet-stats"))])
        failures += filter(None, [oracles.check_drain(cluster.stop(), completed)])
    except Exception:
        cluster.kill()
        raise
    if lags is not None:
        lag_p99 = stats.percentile(sorted(lags), 99.0)
        log(f"send lag p99 {lag_p99 * 1e3:.3f} ms")
        if lag_p99 > MAX_SEND_LAG_P99_S:
            raise Fatal(f"flagged: the open-loop sender fell behind (send lag p99 {lag_p99 * 1e3:.2f} ms)")
    lat = [r[0] for r in results if r is not None]
    tail_p, tail = stats.round_tail(lat, workload.round_size)
    attempted = len(warm) + len(reqs)
    log(f"{workload.name}: {len(reqs)} requests, tail = median over rounds of {workload.round_size} of p{tail_p:g}")
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_rps": (sum(1 for r in results if r and r[1].get("status") == "completed") / wall, "1/s"),
        "lat_p50_ms": (stats.median(lat) * 1e3, "ms"),
        "lat_tail_ms": (tail * 1e3, "ms"),
        "rss_peak_mb": (rss, "MB"),
        "ok_frac": (1.0 - len(failures) / attempted, "fraction"),
    }
    return attempted, failures, metrics


def write_pins(exe):
    """Record every pinned spec's counters from the current build."""
    cluster, _ = start_cluster(exe, WORKLOADS["sim-open"], 0, setups=1)
    conn = Conn(cluster.front)
    pins = {}
    for i, (kind, params) in enumerate(pinned_specs()):
        reply = conn.call({"id": f"pin{i}", "kind": kind, "params": params})
        if reply.get("status") != "completed":
            cluster.kill()
            raise Fatal(f"pin spec {kind} {params}: {reply}")
        keep = oracles.PINNED_KEYS[kind]
        pins[spec_key(kind, params)] = {k: reply["result"][k] for k in keep}
    conn.close()
    cluster.stop()
    with open(oracles.PINS_PATH, "w") as f:
        lines = (f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(pins.items()))
        f.write("{\n" + ",\n".join(lines) + "\n}\n")
    log(f"wrote {len(pins)} pins to {oracles.PINS_PATH}")


def main(argv):
    ap = argparse.ArgumentParser(description="fastmm end-to-end benchmark")
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args(argv)
    if not args.write_pins and not args.workload:
        ap.error("--workload is required")
    try:
        exe, probe_exe = build()
        if args.write_pins:
            write_pins(exe)
            return 0
        calib_before = calib_ms()
        fma = probe(probe_exe, "fma")[0]["gflops"]
        if args.trace:
            attempted, failures, metrics = traced.run(
                exe, args.seed, args.seconds, lambda *a: probe(probe_exe, *a)
            )
        else:
            attempted, failures, metrics = run_e2e(exe, WORKLOADS[args.workload], args.seed, args.seconds)
        calib_after = calib_ms()
    except (Fatal, RuntimeError, OSError, ValueError) as e:
        log(str(e))
        return 2
    log(f"host calib_ms before={calib_before:.3f} after={calib_after:.3f} fma_gflops={fma:.3f}")
    if args.trace:
        metrics["host.calib_ms"] = ((calib_before + calib_after) / 2, "ms")
    for problem in failures[:20]:
        log(f"FAIL {problem}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    print(json.dumps(result), flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
