"""Starting, probing and stopping the real `fastmm` processes.

A `Cluster` is one workload's server side: a single `fastmm serve`, or
two `fastmm serve` shards behind `fastmm fleet --attach`. The benchmark
spawns the shards itself so it knows their addresses and pids, which
lets the traced run send a batch straight to a shard and read each
process's CPU time and peak RSS from /proc.
"""

import json
import os
import socket
import subprocess
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")

# The router declares a shard dead after two health probes in a row go
# unanswered for this long. At the default 100 ms, scheduling stalls on
# a shared 2-vCPU host got healthy shards declared dead mid-run (and
# half the requests shed); 1 s keeps failover for real failures only.
PROBE_INTERVAL_MS = 1000


class Conn:
    """One line-protocol connection."""

    def __init__(self, addr):
        host, port = addr.rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def send(self, line):
        self.sock.sendall(line.encode() + b"\n")

    def recv(self):
        line = self.reader.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return line.decode()

    def call(self, obj):
        self.send(json.dumps(obj, separators=(",", ":")))
        return json.loads(self.recv())

    def close(self):
        self.reader.close()
        self.sock.close()


class Proc:
    """A `fastmm` child that prints `<banner> <addr>` when it listens."""

    def __init__(self, exe, args, banner, env=None):
        self.p = subprocess.Popen(
            [exe, *args],
            stdout=subprocess.PIPE,
            stdin=subprocess.DEVNULL,
            env=env,
            text=True,
        )
        self.banner = banner
        self.addr = None

    def wait_banner(self):
        line = self.p.stdout.readline()
        if not line.startswith(self.banner):
            self.kill()
            raise RuntimeError(f"expected '{self.banner} ...', got {line!r}")
        self.addr = line[len(self.banner):].split()[0]
        return self.addr

    def cpu_s(self):
        """User + system CPU seconds so far."""
        with open(f"/proc/{self.p.pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK

    def rss_peak_mb(self):
        with open(f"/proc/{self.p.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def finish(self, timeout=30):
        """Wait for exit; returns (exit code, remaining stdout)."""
        out, _ = self.p.communicate(timeout=timeout)
        return self.p.returncode, out

    def kill(self):
        if self.p.poll() is None:
            self.p.kill()
        self.p.wait()
        self.p.stdout.close()


class Cluster:
    """One workload's servers. `front` is the address clients use."""

    def __init__(self, exe, workload, seed, env=None, metrics_dir=None):
        self.exe = exe
        self.workload = workload
        self.seed = seed
        self.env = env
        # When set, every process writes its metrics and span JSONL here
        # at exit (`--metrics`, which also turns full telemetry on).
        self.metrics_dir = metrics_dir
        self.shards = []
        self.router = None

    def start(self):
        """Spawn every process and wait until each printed its banner and
        answered `health`. Returns the elapsed seconds."""
        t0 = time.perf_counter()
        nshards = 2 if self.workload.topology == "fleet" else 1
        serve_args = ["serve", "--workers", "1", "--queue-depth", str(self.workload.queue_depth)]
        for i in range(nshards):
            args = serve_args + (["--shard-id", str(i)] if nshards > 1 else []) + self.metrics_args(f"shard{i}")
            self.shards.append(Proc(self.exe, args, "fastmm serve listening on ", self.env))
        for s in self.shards:
            s.wait_banner()
        if nshards > 1:
            attach = ",".join(s.addr for s in self.shards)
            self.router = Proc(
                self.exe,
                ["fleet", "--attach", attach, "--seed", str(self.seed), "--probe-interval-ms", str(PROBE_INTERVAL_MS)]
                + self.metrics_args("router"),
                "fastmm fleet listening on ",
                self.env,
            )
            self.router.wait_banner()
        for proc in self.procs():
            conn = Conn(proc.addr)
            reply = conn.call({"id": "setup", "kind": "health"})
            conn.close()
            if reply.get("status") != "ok":
                raise RuntimeError(f"health on {proc.addr}: {reply}")
        return time.perf_counter() - t0

    def metrics_args(self, name):
        if not self.metrics_dir:
            return []
        os.makedirs(self.metrics_dir, exist_ok=True)
        return ["--metrics", os.path.join(self.metrics_dir, f"{name}.jsonl")]

    def spans(self):
        """Per trace id, the summed duration (ns) of each span name the
        processes logged; read after `stop`."""
        out = {}
        for name in sorted(os.listdir(self.metrics_dir)):
            with open(os.path.join(self.metrics_dir, name)) as f:
                for line in f:
                    if line.startswith('{"type":"span"'):
                        span = json.loads(line)
                        names = out.setdefault(span["trace"], {})
                        names[span["name"]] = names.get(span["name"], 0) + span["total_ns"]
        return out

    def procs(self):
        return self.shards + ([self.router] if self.router else [])

    @property
    def front(self):
        return (self.router or self.shards[0]).addr

    def stats(self, proc, kind="stats"):
        conn = Conn(proc.addr)
        try:
            return conn.call({"id": kind, "kind": kind})
        finally:
            conn.close()

    def rss_peak_mb(self):
        return sum(p.rss_peak_mb() for p in self.procs())

    def stop(self):
        """Graceful drain through the front door. Returns the drain ack;
        raises if any process exits nonzero."""
        conn = Conn(self.front)
        ack = conn.call({"id": "drain", "kind": "shutdown"})
        conn.close()
        for proc in ([self.router] if self.router else []) + self.shards:
            try:
                code, out = proc.finish()
            except subprocess.TimeoutExpired:
                self.kill()
                raise RuntimeError(f"{proc.banner.split()[1]} did not exit within 30 s of the drain ack {ack}")
            if code != 0:
                raise RuntimeError(f"{proc.banner.split()[1]} exited {code}: {out.strip()}")
        return ack

    def kill(self):
        for proc in self.procs():
            proc.kill()
