//! End-to-end protocol tests against a real listening server: shedding,
//! deadlines, poison isolation, graceful drain, and the full seeded
//! chaos scenario from the acceptance checklist.

use fmm_serve::{Kind, LoadgenConfig, Request, Response, ServerConfig, ServerHandle, Status};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// Minimal test client: one connection, line-at-a-time.
struct Client {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(server: &ServerHandle) -> Client {
        let writer = TcpStream::connect(server.addr()).expect("connect");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        Client { writer, reader }
    }

    fn send(&mut self, req: &Request) {
        writeln!(self.writer, "{}", req.to_line()).expect("send");
    }

    fn recv(&mut self) -> Response {
        let mut line = String::new();
        assert!(self.reader.read_line(&mut line).expect("recv") > 0, "eof");
        Response::parse(line.trim()).expect("parse reply")
    }

    fn round_trip(&mut self, req: &Request) -> Response {
        self.send(req);
        self.recv()
    }
}

fn cheap_io(id: &str) -> Request {
    Request::new(id, Kind::Io)
        .with_deadline(10_000)
        .with_param("alg", "classical")
        .with_param("n", "8")
        .with_param("m", "64")
}

fn small_server(queue_depth: usize, workers: usize) -> ServerHandle {
    ServerHandle::start(ServerConfig {
        queue_depth,
        workers,
        ..ServerConfig::default()
    })
    .expect("start server")
}

#[test]
fn completed_job_reports_simulator_results() {
    let server = small_server(8, 2);
    let mut client = Client::connect(&server);
    let resp = client.round_trip(&cheap_io("job-1"));
    assert_eq!(resp.status, Status::Completed);
    assert_eq!(resp.id, "job-1");
    assert!(resp.result["io"].parse::<u64>().unwrap() > 0);
    assert!(resp.result["ratio"].parse::<f64>().unwrap() > 0.0);
}

#[test]
fn paused_queue_sheds_exactly_the_overflow_deterministically() {
    for _ in 0..2 {
        let server = small_server(4, 2);
        let mut client = Client::connect(&server);
        assert_eq!(
            client.round_trip(&Request::new("p", Kind::Pause)).status,
            Status::Ok
        );
        for i in 0..10 {
            client.send(&cheap_io(&format!("b{i}")));
        }
        // With workers held, exactly `queue_depth` are admitted: the 6
        // overflow requests shed immediately, whatever the scheduler does.
        let mut shed = 0;
        for _ in 0..6 {
            let resp = client.recv();
            assert_eq!(resp.status, Status::Shed);
            assert_eq!(resp.reason, "queue-full");
            shed += 1;
        }
        assert_eq!(shed, 6);
        assert_eq!(
            client.round_trip(&Request::new("r", Kind::Resume)).status,
            Status::Ok
        );
        let mut completed = 0;
        for _ in 0..4 {
            let resp = client.recv();
            assert_eq!(resp.status, Status::Completed);
            completed += 1;
        }
        assert_eq!(completed, 4);
        let stats = server.shutdown_and_wait();
        assert_eq!(stats.accepted, 4);
        assert_eq!(stats.shed, 6);
        assert!(stats.balanced());
    }
}

#[test]
fn cancel_verb_cancels_a_running_job_by_id() {
    // The router's cancel-on-lost-hedge path, driven directly: a slow
    // job on one connection, a `cancel` naming its id on another. The
    // victim must settle as `cancelled` (not hang, not complete), and a
    // cancel for an unknown id must be a polite no-op.
    let server = small_server(8, 2);
    let mut jobs = Client::connect(&server);
    jobs.send(
        &Request::new("victim", Kind::Io)
            .with_deadline(30_000)
            .with_param("sleep_ms", "5000"),
    );
    // Let the worker pick it up so the cancel lands mid-run, which is
    // the racy case worth pinning (queued cancels are covered by the
    // deadline tests).
    std::thread::sleep(std::time::Duration::from_millis(100));

    let mut control = Client::connect(&server);
    let miss =
        control.round_trip(&Request::new("c0", Kind::Cancel).with_param("target", "no-such-job"));
    assert_eq!(miss.status, Status::Ok);
    assert_eq!(miss.result.get("cancelled").map(String::as_str), Some("0"));

    let hit = control.round_trip(&Request::new("c1", Kind::Cancel).with_param("target", "victim"));
    assert_eq!(hit.status, Status::Ok);
    assert_eq!(hit.result.get("cancelled").map(String::as_str), Some("1"));

    let resp = jobs.recv();
    assert_eq!(resp.id, "victim");
    assert_eq!(resp.status, Status::Cancelled, "reply: {resp:?}");

    // A cancel without a target is a rejection, not a wedge.
    let bad = control.round_trip(&Request::new("c2", Kind::Cancel));
    assert_eq!(bad.status, Status::Error);
    assert!(bad.reason.starts_with("rejected:"), "{}", bad.reason);

    let stats = server.shutdown_and_wait();
    assert!(stats.balanced());
    assert_eq!(stats.cancelled, 1);
}

#[test]
fn tiny_deadline_job_is_cancelled_not_abandoned() {
    let server = small_server(8, 1);
    let mut client = Client::connect(&server);
    let slow = Request::new("slow", Kind::Io)
        .with_deadline(30)
        .with_param("sleep_ms", "60000");
    let started = std::time::Instant::now();
    let resp = client.round_trip(&slow);
    assert_eq!(resp.status, Status::DeadlineExceeded);
    // The reply must come at the deadline — a detached-thread fake would
    // also reply fast, but then the *next* job would queue behind a
    // worker still sleeping for a minute. Prove the worker came back.
    let next = client.round_trip(&cheap_io("after"));
    assert_eq!(next.status, Status::Completed);
    assert!(
        started.elapsed() < std::time::Duration::from_secs(30),
        "worker still busy long after the deadline"
    );
    let stats = server.shutdown_and_wait();
    assert_eq!(stats.deadline_exceeded, 1);
    assert!(stats.balanced());
}

#[test]
fn deadline_can_expire_while_queued() {
    let server = small_server(8, 1);
    let mut client = Client::connect(&server);
    assert_eq!(
        client.round_trip(&Request::new("p", Kind::Pause)).status,
        Status::Ok
    );
    // Admitted, then held in the paused queue past its 20 ms budget.
    client.send(
        &Request::new("q", Kind::Io)
            .with_deadline(20)
            .with_param("sleep_ms", "1"),
    );
    std::thread::sleep(std::time::Duration::from_millis(80));
    assert_eq!(
        client.round_trip(&Request::new("r", Kind::Resume)).status,
        Status::Ok
    );
    let resp = client.recv();
    assert_eq!(resp.status, Status::DeadlineExceeded);
    assert_eq!(resp.reason, "expired in queue");
}

#[test]
fn poison_job_fails_alone_and_the_worker_survives() {
    let server = small_server(8, 1);
    let mut client = Client::connect(&server);
    let poison = Request::new("poison", Kind::Io)
        .with_deadline(10_000)
        .with_param("alg", "strassen")
        .with_param("n", "24")
        .with_param("m", "96");
    let resp = client.round_trip(&poison);
    assert_eq!(resp.status, Status::Error);
    assert!(resp.reason.starts_with("panic:"), "got: {}", resp.reason);
    // Same single worker, next job: isolation means it still serves.
    let next = client.round_trip(&cheap_io("after-poison"));
    assert_eq!(next.status, Status::Completed);
    let stats = server.shutdown_and_wait();
    assert_eq!(stats.errored, 1);
    assert_eq!(stats.completed, 1);
    assert!(stats.balanced());
}

#[test]
fn malformed_and_oversized_lines_are_rejected_without_admission() {
    let server = ServerHandle::start(ServerConfig {
        max_line_bytes: 512,
        ..ServerConfig::default()
    })
    .expect("start");
    let mut client = Client::connect(&server);
    writeln!(client.writer, "this is not json").unwrap();
    let resp = client.recv();
    assert_eq!(resp.status, Status::Error);
    assert!(resp.reason.starts_with("rejected:"));
    writeln!(
        client.writer,
        "{{\"id\":\"x\",\"kind\":\"io\",\"params\":{{\"pad\":\"{}\"}}}}",
        "y".repeat(2048)
    )
    .unwrap();
    let resp = client.recv();
    assert!(resp.reason.contains("exceeds"), "got: {}", resp.reason);
    // The stream stays framed: a well-formed request still works.
    let next = client.round_trip(&cheap_io("after-garbage"));
    assert_eq!(next.status, Status::Completed);
    let stats = server.shutdown_and_wait();
    assert_eq!(stats.rejected, 2);
    assert_eq!(stats.accepted, 1);
    assert!(stats.balanced());
}

#[test]
fn fleet_verbs_sent_to_a_shard_are_rejected_and_the_connection_lives() {
    let server = small_server(8, 1);
    let mut client = Client::connect(&server);
    for kind in [
        Kind::FleetStats,
        Kind::DrainShard,
        Kind::KillShard,
        Kind::StallShard,
        Kind::KillRouter,
    ] {
        let resp = client.round_trip(&Request::new("f", kind));
        assert_eq!(resp.status, Status::Error, "{}", kind.as_str());
        assert!(
            resp.reason.starts_with("rejected:") && resp.reason.contains("is a fleet verb"),
            "{}: {}",
            kind.as_str(),
            resp.reason
        );
    }
    // The reader thread survived all five and still answers.
    let health = client.round_trip(&Request::new("h", Kind::Health));
    assert_eq!(health.status, Status::Ok);
    let stats = server.shutdown_and_wait();
    assert_eq!(stats.rejected, 5);
    assert!(stats.balanced());
}

#[test]
fn health_and_stats_report_live_state() {
    let server = small_server(8, 2);
    let mut client = Client::connect(&server);
    client.round_trip(&cheap_io("warm"));
    let health = client.round_trip(&Request::new("h", Kind::Health));
    assert_eq!(health.status, Status::Ok);
    assert_eq!(health.result["queue_capacity"], "8");
    assert_eq!(health.result["draining"], "false");
    assert!(health.result.contains_key("uptime_ms"));
    let stats = client.round_trip(&Request::new("s", Kind::Stats));
    assert_eq!(stats.result["accepted"], "1");
    assert_eq!(stats.result["completed"], "1");
    // Satellite telemetry: queue high-water mark and the per-kind
    // latency summary for the one completed io job (no other kinds, so
    // no other latency keys — empty histograms are omitted, not zero).
    assert!(stats.result["queue_depth_hwm"].parse::<u64>().unwrap() >= 1);
    assert_eq!(stats.result["latency_io_count"], "1");
    let p50: u64 = stats.result["latency_io_p50_us"].parse().unwrap();
    let p95: u64 = stats.result["latency_io_p95_us"].parse().unwrap();
    let p99: u64 = stats.result["latency_io_p99_us"].parse().unwrap();
    assert!(p50 > 0 && p50 <= p95 && p95 <= p99);
    assert!(!stats.result.keys().any(|k| k.starts_with("latency_sweep")));
    // Every terminal job reply carries its trace id (16 hex digits).
    let done = client.round_trip(&cheap_io("traced"));
    let trace = &done.result["trace_id"];
    assert_eq!(trace.len(), 16);
    assert!(trace.chars().all(|c| c.is_ascii_hexdigit()));
}

#[test]
fn graceful_drain_finishes_backlog_before_acknowledging_shutdown() {
    let server = small_server(16, 1);
    let mut jobs_conn = Client::connect(&server);
    // Fire-and-forget a backlog on one connection...
    for i in 0..4 {
        jobs_conn.send(
            &Request::new(&format!("slow-{i}"), Kind::Io)
                .with_deadline(10_000)
                .with_param("sleep_ms", "50"),
        );
    }
    // The conn thread handles lines in order, so a health ack proves
    // all four jobs were admitted before the shutdown below can race.
    assert_eq!(
        jobs_conn
            .round_trip(&Request::new("h", Kind::Health))
            .status,
        Status::Ok
    );
    // ...then ask a second connection to shut the server down.
    let mut ctl = Client::connect(&server);
    let ack = ctl.round_trip(&Request::new("bye", Kind::Shutdown));
    assert_eq!(ack.status, Status::Ok);
    // The ack carries final counters, already balanced: nothing in
    // flight, nothing queued, every accepted job terminally replied.
    assert_eq!(ack.result["accepted"], "4");
    assert_eq!(ack.result["completed"], "4");
    // The backlog's replies were written before the ack released the
    // accept loop to close sockets.
    for _ in 0..4 {
        assert_eq!(jobs_conn.recv().status, Status::Completed);
    }
    // New work after the drain is shed, not silently dropped, while the
    // sockets remain open.
    let stats = server.wait();
    assert!(stats.balanced());
    assert_eq!(stats.completed, 4);
}

#[test]
fn draining_server_sheds_new_jobs_with_a_draining_reason() {
    let server = small_server(8, 1);
    let mut jobs_conn = Client::connect(&server);
    jobs_conn.send(
        &Request::new("slow", Kind::Io)
            .with_deadline(10_000)
            .with_param("sleep_ms", "300"),
    );
    // Give the worker a moment to pick the job up, then start draining.
    std::thread::sleep(std::time::Duration::from_millis(50));
    let mut ctl = Client::connect(&server);
    ctl.send(&Request::new("bye", Kind::Shutdown));
    std::thread::sleep(std::time::Duration::from_millis(50));
    // The drain is still waiting on the slow job; a new job must shed.
    let mut late = Client::connect(&server);
    let resp = late.round_trip(&cheap_io("late"));
    assert_eq!(resp.status, Status::Shed);
    assert_eq!(resp.reason, "draining");
    assert_eq!(jobs_conn.recv().status, Status::Completed);
    assert_eq!(ctl.recv().status, Status::Ok);
    let stats = server.wait();
    assert!(stats.balanced());
    assert_eq!(stats.shed, 1);
}

/// The acceptance chaos run, scaled for CI: ≥1000 seeded requests over 4
/// connections against a depth-32 queue, ≥10% poison/oversized, burst
/// overload, graceful shutdown — zero lost jobs and balanced counters,
/// and the whole summary reproducible for a fixed seed.
#[test]
fn seeded_chaos_run_loses_nothing_and_reproduces() {
    let run_once = || {
        let server = ServerHandle::start(ServerConfig {
            queue_depth: 32,
            workers: 4,
            ..ServerConfig::default()
        })
        .expect("start");
        let cfg = LoadgenConfig {
            addr: server.addr().to_string(),
            conns: 4,
            requests: 250,
            seed: 20260807,
            burst: Some(64),
            shutdown: true,
            ..LoadgenConfig::default()
        };
        let summary = fmm_serve::loadgen::run(&cfg).expect("loadgen run");
        let stats = server.wait();
        (summary, stats)
    };
    let (summary, stats) = run_once();
    assert_eq!(summary.sent, 4 * 250 + 64);
    assert_eq!(summary.lost, 0, "every request must get exactly one reply");
    assert_eq!(summary.mismatched, 0);
    assert!(summary.ok(), "summary invariants failed: {summary:?}");
    // Overload tier: the paused burst sheds exactly burst - queue_depth.
    assert_eq!(summary.burst_shed, 64 - 32);
    // ≥10% of the mix is poison or oversized (seeded, so exact per run).
    assert!(summary.errored + summary.rejected >= 100);
    assert!(
        stats.balanced(),
        "final server counters unbalanced: {stats:?}"
    );
    assert_eq!(stats.accepted, stats.terminal());
    assert_eq!(summary.shed, stats.shed);
    // Reproducibility: a fresh server, same seed → the same summary.
    let (summary2, _) = run_once();
    assert_eq!(summary, summary2);
}

#[test]
fn kernel_job_completes_verifies_and_honours_its_deadline() {
    let server = small_server(8, 1);
    let mut client = Client::connect(&server);

    // A real multiply, checked against the naive reference on the server.
    let quick = Request::new("k-ok", Kind::Kernel)
        .with_deadline(120_000)
        .with_param("alg", "strassen")
        .with_param("n", "24")
        .with_param("cutoff", "8")
        .with_param("dtype", "i64")
        .with_param("check", "true");
    let resp = client.round_trip(&quick);
    assert_eq!(resp.status, Status::Completed);
    assert_eq!(resp.result["matches"], "true");
    assert_eq!(resp.result["alg"], "strassen");
    assert!(resp.result["checksum"].parse::<i64>().is_ok());
    assert!(resp.result["flops"].parse::<u64>().unwrap() > 0);

    // Bad params never consume a queue slot.
    let bad = Request::new("k-bad", Kind::Kernel).with_param("cutoff", "0");
    let resp = client.round_trip(&bad);
    assert_eq!(resp.status, Status::Error);
    assert!(resp.reason.starts_with("rejected:"), "got: {}", resp.reason);

    // An order-1536 `i64` classical multiply is 7·10⁹ integer operations
    // on the portable kernel, far more than any build does in 50 ms; the
    // micro-tile cancellation polls must cut it short, and the worker
    // (plus its kernel thread pool) must come back for the next job.
    let big = Request::new("k-slow", Kind::Kernel)
        .with_deadline(50)
        .with_param("alg", "classical")
        .with_param("n", "1536")
        .with_param("dtype", "i64")
        .with_param("threads", "2");
    let started = std::time::Instant::now();
    let resp = client.round_trip(&big);
    assert_eq!(resp.status, Status::DeadlineExceeded);
    assert!(
        started.elapsed() < std::time::Duration::from_secs(30),
        "kernel job ignored its deadline"
    );
    let next = client.round_trip(&cheap_io("after"));
    assert_eq!(next.status, Status::Completed);

    let stats = server.shutdown_and_wait();
    assert_eq!(stats.deadline_exceeded, 1);
    assert_eq!(stats.rejected, 1);
    assert!(stats.balanced(), "conservation law must hold: {stats:?}");
}

/// Sorted key set of a reply's result map.
fn keys(resp: &Response) -> Vec<String> {
    resp.result.keys().cloned().collect()
}

fn sorted(list: &[String]) -> Vec<String> {
    let mut v = list.to_vec();
    v.sort();
    v
}

fn owned(list: &[&str]) -> Vec<String> {
    list.iter().map(|s| s.to_string()).collect()
}

const LEDGER_KEYS: [&str; 7] = [
    "accepted",
    "completed",
    "errored",
    "cancelled",
    "deadline_exceeded",
    "shed",
    "rejected",
];

#[test]
fn control_replies_carry_exactly_the_pinned_wire_keys() {
    for shard_id in [None, Some(3)] {
        let server = ServerHandle::start(ServerConfig {
            queue_depth: 8,
            workers: 1,
            shard_id,
            ..ServerConfig::default()
        })
        .expect("start server");
        let shard_key = owned(if shard_id.is_some() {
            &["shard_id"]
        } else {
            &[]
        });
        let mut client = Client::connect(&server);

        let health = client.round_trip(&Request::new("h", Kind::Health));
        assert_eq!(health.status, Status::Ok);
        let mut want = owned(&[
            "uptime_ms",
            "queue_depth",
            "queue_capacity",
            "outstanding",
            "draining",
        ]);
        want.extend_from_slice(&shard_key);
        assert_eq!(keys(&health), sorted(&want), "health keys");

        // Before any job: the fixed keys only (empty latency histograms
        // are omitted, never zeros).
        let stats = client.round_trip(&Request::new("s", Kind::Stats));
        let mut fixed = owned(&LEDGER_KEYS);
        fixed.push("queue_depth_hwm".into());
        fixed.extend_from_slice(&shard_key);
        assert_eq!(keys(&stats), sorted(&fixed), "stats keys before any job");

        // After one io and one bounds job: the fixed keys plus
        // `latency_<kind>_{count,p50_us,p95_us,p99_us}` per kind seen.
        assert_eq!(client.round_trip(&cheap_io("j1")).status, Status::Completed);
        let bounds = Request::new("j2", Kind::Bounds)
            .with_param("n", "64")
            .with_param("m", "512");
        assert_eq!(client.round_trip(&bounds).status, Status::Completed);
        let stats = client.round_trip(&Request::new("s2", Kind::Stats));
        let mut want = fixed.clone();
        for kind in ["io", "bounds"] {
            for suffix in ["count", "p50_us", "p95_us", "p99_us"] {
                want.push(format!("latency_{kind}_{suffix}"));
            }
        }
        assert_eq!(keys(&stats), sorted(&want), "stats keys after jobs");

        let ack = client.round_trip(&Request::new("stop", Kind::Shutdown));
        assert_eq!(ack.status, Status::Ok);
        assert_eq!(
            keys(&ack),
            sorted(&owned(&LEDGER_KEYS)),
            "shutdown ack keys"
        );
        server.wait();
    }
}

#[test]
fn zero_sizes_and_unknown_schedules_are_rejected_at_admission() {
    let server = small_server(8, 1);
    let mut client = Client::connect(&server);
    let refused = [
        (Kind::Io, "m", "0", "param 'm' must be at least 1"),
        (Kind::Bounds, "m", "0", "param 'm' must be at least 1"),
        (Kind::Bounds, "p", "0", "param 'p' must be at least 1"),
        (Kind::Kernel, "n", "0", "param 'n' must be at least 1"),
        (Kind::Faults, "schedule", "cannon-threaded", "unknown"),
    ];
    for (i, (kind, key, value, reason)) in refused.into_iter().enumerate() {
        let resp = client.round_trip(&Request::new(&format!("r{i}"), kind).with_param(key, value));
        assert_eq!(resp.status, Status::Error, "{key}={value}");
        assert!(resp.reason.starts_with("rejected:"), "{}", resp.reason);
        assert!(resp.reason.contains(reason), "{}", resp.reason);
    }
    // `faults=` runs the io job twice, clean and with cache wipes.
    let faulty = cheap_io("faulty").with_param("faults", "flush-every=512");
    let resp = client.round_trip(&faulty);
    assert_eq!(resp.status, Status::Completed, "{resp:?}");
    assert_eq!(resp.result["matches"], "true");
    assert!(resp.result["flushes"].parse::<u64>().unwrap() > 0);
    let stats = server.shutdown_and_wait();
    assert_eq!((stats.rejected, stats.completed), (5, 1));
    assert!(stats.balanced());
}
