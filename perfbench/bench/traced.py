"""The traced run: each workload's time split across the layers.

The split is made from outside the program. For every workload the run
starts two copies of its servers, one plain and one under FMM_OBS=full,
and sends the workload's requests to them in alternating chunks (on
fleet-rpc a third chunk goes straight to shard 0), so host drift hits
every side alike. The servers' own `stats` / `fleet-stats` verbs and
/proc give the server-side numbers; `perfprobe` times each layer's
public functions in-process on the workloads' own requests and lines.
"""

import json
import os
import random

from . import oracles, stats
from .client import closed_loop, open_loop
from .servers import Cluster, Conn
from .workloads import WORKLOADS, Req, class_params, generate, representatives

# Requests per chunk before the load moves to the next target.
CHUNK = 25
# Share of the e2e request count each traced pass sends.
TRACED_SHARE = 0.5
# Workloads without `bounds` requests get one wire probe per this many.
PROBE_EVERY = 10

SIM_KINDS = ("io", "faults", "sweep-cell")


def counter(reply, key):
    return int(reply["result"].get(key, 0))


def stat_p50_ms(reply, kind):
    """The server's own p50 for a job kind: interpolated from its
    power-of-two latency histogram, so coarse above a few hundred us."""
    return int(reply["result"][f"latency_{kind.replace('-', '_')}_p50_us"]) / 1e3


def with_wire_probes(reqs, seed):
    """Interleave cheap `bounds` probes into a workload that has none, so
    its wire time can be read off a request that does almost no work."""
    if any(r.kind == "bounds" for r in reqs):
        return reqs
    rng = random.Random(f"wire:{seed}")
    out = []
    for i, req in enumerate(reqs):
        if i % PROBE_EVERY == 0:
            out.append(Req(f"tp{i}", "wire", *class_params("bounds", rng, None)))
        out.append(req)
    return out


def layer_pass(exe, workload, seed, seconds, workdir):
    """One workload's traced pass. Returns (attempted, failures, metrics,
    (request file, reply file)) - the files feed the protocol probe.

    Targets, in chunk order: 0 the plain front door, 1 the traced front
    door, and on the fleet 2 the traced shard 0 directly. The plain side
    gives the untraced latency, CPU and counters; the traced side's span
    log gives each request's job time (`job.<kind>`) and kernel time
    (`kernel.multiply`), matched to replies by trace id.
    """
    w = workload.name
    count = max(200, int(workload.count(seconds) * TRACED_SHARE))
    reqs = with_wire_probes(generate(workload, seed, count, prefix="t"), seed)
    oracle = oracles.Oracle(oracles.load_pins())
    oracle.prepare(reqs)
    plain = Cluster(exe, workload, seed)
    traced = Cluster(exe, workload, seed, dict(os.environ, FMM_OBS="full"), os.path.join(workdir, f"{w}.spans"))
    clusters = [plain, traced]
    conns = []
    try:
        for c in clusters:
            c.start()
        addrs = [plain.front, traced.front] + ([traced.shards[0].addr] if traced.router else [])
        ntargets = len(addrs)
        route = lambda i: (i // CHUNK) % ntargets  # noqa: E731
        conns = [Conn(a) for a in addrs]
        cpu0 = [p.cpu_s() for p in plain.procs()]
        lags = None
        if workload.loop == "open":
            results, _, lags = open_loop(conns, reqs, route)
        else:
            results, _ = closed_loop(conns, reqs, route)
        cpu = [b - a for a, b in zip(cpu0, (p.cpu_s() for p in plain.procs()))]
        shard_stats = [plain.stats(s) for s in plain.shards]
        fleet_stats = plain.stats(plain.router, "fleet-stats") if plain.router else None
        rss = sum(s.rss_peak_mb() for s in plain.shards)
        for c in conns:
            c.close()
        conns = []
        failures = oracle.score(reqs, results)[0]
        if fleet_stats:
            failures += filter(None, [oracles.check_hedges(fleet_stats)])
        for t, c in enumerate(clusters):
            done = sum(1 for i, r in enumerate(results) if r and route(i) == t and r[1].get("status") == "completed")
            failures += filter(None, [oracles.check_drain(c.stop(), done)])
        spans = traced.spans()
    except Exception:
        for c in conns:
            c.close()
        for c in clusters:
            c.kill()
        raise

    # Per target: (request, latency ms, job ns, kernel ns) in send order.
    by_route = [[] for _ in addrs]
    for i, (req, res) in enumerate(zip(reqs, results)):
        if res is None:  # lost: already a failure
            continue
        trace = spans.get(res[1].get("result", {}).get("trace_id"), {})
        by_route[route(i)].append((req, res[0] * 1e3, trace.get(f"job.{req.kind}", 0), trace.get("kernel.multiply", 0)))
    nshards = len(plain.shards)
    plain_ms = [lat for req, lat, _, _ in by_route[0] if req.cls != "wire"]
    lat_plain = stats.median(plain_ms)
    # The traced side the server-side split is read from: the shard
    # itself (on the fleet, the direct batch), so no router hop is in it.
    side = by_route[-1]
    wire = stats.median([lat - job / 1e6 for req, lat, job, _ in side if req.kind == "bounds"])
    waits = [lat - job / 1e6 - wire for req, lat, job, _ in side if req.cls != "wire"]
    mkind = next(r.kind for r in reqs if r.cls == workload.median_class)
    served = len(by_route[0])
    m = {
        f"obs.trace_overhead_frac.{w}": (
            stats.median([lat for req, lat, _, _ in by_route[1] if req.cls != "wire"]) / lat_plain - 1,
            "fraction",
        ),
        f"serve.server_lat_p50_ms.{w}": (sum(stat_p50_ms(s, mkind) for s in shard_stats) / nshards, "ms"),
        f"serve.wire_ms.{w}": (wire, "ms"),
        f"serve.queue_wait_ms.{w}": (sum(waits) / len(waits), "ms"),
        f"serve.queue_depth_hwm.{w}": (max(counter(s, "queue_depth_hwm") for s in shard_stats), "count"),
        f"serve.shed.{w}": (sum(counter(s, "shed") for s in shard_stats), "count"),
        f"serve.rejected.{w}": (sum(counter(s, "rejected") for s in shard_stats), "count"),
        f"serve.cpu_ms_per_req.{w}": (sum(cpu[:nshards]) * 1e3 / served, "ms"),
        f"serve.rss_mb.{w}": (rss, "MB"),
    }
    if plain.router:
        direct = stats.median([lat for req, lat, _, _ in by_route[2] if req.kind == "bounds"])
        hop = stats.median([lat for req, lat, _, _ in by_route[1] if req.kind == "bounds"]) - direct
        accepted = [counter(s, "accepted") for s in shard_stats]
        f = fleet_stats["result"]
        settled = sum(int(f[k]) for k in ("completed", "errored", "cancelled", "deadline_exceeded"))
        m.update(
            {
                "client.rtt_direct_p50_ms": (direct, "ms"),
                "router.hop_ms": (hop, "ms"),
                "router.cpu_ms_per_req": (cpu[-1] * 1e3 / served, "ms"),
                "router.useful_frac": (settled / sum(accepted), "fraction"),
                "router.redispatched": (int(f["redispatched"]), "count"),
                "router.dup_suppressed": (int(f["dup_suppressed"]), "count"),
                "router.hedges_launched": (int(f["hedges_launched"]), "count"),
                "router.shard_split": (max(accepted) / max(1, min(accepted)), "ratio"),
                "purpose.hop_wire_share": ((hop + wire) / lat_plain, "fraction"),
            }
        )
    if lags is not None:
        m["client.send_lag_p99_ms"] = (stats.percentile(sorted(lags), 99.0) * 1e3, "ms")
    # Purpose checks on the traced shard: the kernel's share of kernel-mm
    # server-side time, and the simulators' share of sim-open busy time.
    if w == "kernel-mm":
        kernel_ms = sum(k for _, _, _, k in side) / 1e6
        m["purpose.kernel_share"] = (kernel_ms / sum(lat - wire for _, lat, _, _ in side), "fraction")
    if w == "sim-open":
        sim_ns = sum(job for req, _, job, _ in side if req.kind in SIM_KINDS)
        m["purpose.sim_exec_share"] = (sim_ns / sum(job for _, _, job, _ in side), "fraction")

    # The workload's own lines, for the in-process protocol probe.
    req_path = os.path.join(workdir, f"{w}.requests.jsonl")
    rep_path = os.path.join(workdir, f"{w}.replies.jsonl")
    with open(req_path, "w") as f:
        f.writelines(req.line() + "\n" for req in reqs)
    with open(rep_path, "w") as f:
        f.writelines(json.dumps(res[1], separators=(",", ":")) + "\n" for res in results if res)
    return len(reqs), failures, m, (req_path, rep_path)


def probe_metrics(probe, workdir):
    """In-process timings of every class's job run and layer call."""
    reps = {r.id: r for w in WORKLOADS.values() for r in representatives(w)}
    path = os.path.join(workdir, "classes.jsonl")
    with open(path, "w") as f:
        f.writelines(r.line() + "\n" for r in reps.values())
    m, exec_ms, sweep_ms = {}, {}, []
    for row in probe("classes", path):
        req = reps[row["class"]]
        cls = req.cls
        exec_ms.setdefault(cls, []).append(row["exec_ms"])
        layer = row.get("layer_ms")
        if req.kind == "kernel":
            n = int(req.params["n"])
            m[f"kernel.layer_ms.{cls}"] = (layer, "ms")
            m[f"kernel.gflops.{cls}"] = ((2 * n**3 - n**2) / (layer * 1e6), "GFLOP/s")
            m[f"kernel.pack_frac.{cls}"] = (row["pack_ns"] / (layer * 1e6), "fraction")
            m[f"kernel.micro_tiles.{cls}"] = (row["micro_tiles"], "count")
            m[f"kernel.leaf_products.{cls}"] = (row["leaf_products"], "count")
        elif req.kind == "io":
            m[f"memsim.wall_ms.{cls}"] = (layer, "ms")
            m[f"memsim.accesses_per_us.{cls}"] = (row["accesses"] / (layer * 1e3), "1/us")
            m[f"memsim.io.{cls}"] = (row["io"], "count")
        elif req.kind == "faults":
            m[f"par_faults.wall_ms.{cls}"] = (layer, "ms")
            m[f"par_faults.words.{cls}"] = (row["words"], "count")
            m[f"par_faults.recovery_words.{cls}"] = (row["recovery_words"], "count")
        elif req.kind == "sweep-cell":
            sweep_ms.append(layer)
    for cls, values in exec_ms.items():
        m[f"jobs.exec_ms.{cls}"] = (sum(values) / len(values), "ms")
    # The smoke spec's six cells, as sim-open draws them: uniformly.
    m["sweep.cell_ms"] = (sum(sweep_ms) / len(sweep_ms), "ms")
    return m


def run(exe, seed, seconds, probe):
    """All three workloads' layer split. Returns (attempted, failures,
    metrics)."""
    workdir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    os.makedirs(workdir, exist_ok=True)
    attempted, failures, metrics = 0, [], {}
    for name in sorted(WORKLOADS):
        a, f, m, (req_path, rep_path) = layer_pass(exe, WORKLOADS[name], seed, seconds, workdir)
        attempted += a
        failures += f
        metrics.update(m)
        proto = probe("proto", req_path, rep_path)[0]
        metrics[f"proto.parse_us.{name}"] = (proto["parse_us"], "us")
        metrics[f"proto.encode_us.{name}"] = (proto["encode_us"], "us")
    # The roof is measured next to the kernel timings it divides.
    fma = probe("fma")[0]["gflops"]
    metrics["host.fma_gflops"] = (fma, "GFLOP/s")
    metrics.update(probe_metrics(probe, workdir))
    for key, (value, _) in list(metrics.items()):
        if key.startswith("kernel.gflops."):
            metrics["kernel.roof_frac." + key[len("kernel.gflops."):]] = (value / fma, "fraction")
    return attempted, failures, metrics
