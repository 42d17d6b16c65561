//! Binary-level contract for the self-healing fleet: supervised shard
//! respawn, the crash-loop breaker, and a router SIGKILL survived via
//! the write-ahead journal.
//!
//! The narrative, end to end in one process tree:
//!   1. a supervised, journaled fleet of three shards comes up;
//!   2. shard 1 is SIGKILLed twice — the supervisor respawns it at the
//!      same ring index both times (`restarts` climbs);
//!   3. a third rapid SIGKILL trips the crash-loop breaker — shard 1 is
//!      quarantined, not respawned (`breaker_open=1`);
//!   4. a loadgen run with seeded reconnects SIGKILLs the *router*
//!      mid-run via the `kill-router` verb; the test relaunches
//!      `fastmm fleet --resume <journal>` on the same address, clients
//!      reconnect and re-send, and the run ends with `lost: 0` and the
//!      conservation law balanced at the resumed router's drain;
//!   5. the whole sequence rerun under the same seed reproduces the
//!      client-observed loadgen summary byte for byte.
//!
//! Each pass leaves its journal, shard metrics, fleet stdout/stderr,
//! phase-1 fleet stats and loadgen summary under `target/chaos-smoke/`.

use fastmm::serve::proto::{Kind, Request, Response, Status};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

fn fastmm_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fastmm"))
}

fn read_banner(child: &mut Child) -> String {
    let mut first = String::new();
    BufReader::new(child.stdout.as_mut().expect("stdout piped"))
        .read_line(&mut first)
        .expect("read listening line");
    first
        .trim()
        .strip_prefix("fastmm fleet listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {first:?}"))
        .split(" (")
        .next()
        .unwrap()
        .to_string()
}

fn log_file(path: &Path) -> std::fs::File {
    std::fs::File::create(path).expect("create log file")
}

fn spawn_fleet(journal: &str, shard_metrics: &str, stderr_log: &Path) -> (Child, String) {
    let mut child = fastmm_cmd()
        .args([
            "fleet",
            "--shards",
            "3",
            "--seed",
            "7",
            "--supervise",
            "--probe-interval-ms",
            "30",
            "--breaker-k",
            "3",
            "--breaker-window-ms",
            "60000",
            "--journal",
            journal,
            "--shard-metrics-dir",
            shard_metrics,
        ])
        .stdout(Stdio::piped())
        .stderr(log_file(stderr_log))
        .spawn()
        .expect("spawn fastmm fleet");
    let addr = read_banner(&mut child);
    (child, addr)
}

fn spawn_resume(journal: &str, addr: &str, stderr_log: &Path) -> Child {
    let mut child = fastmm_cmd()
        .args([
            "fleet",
            "--resume",
            journal,
            "--addr",
            addr,
            "--supervise",
            "--probe-interval-ms",
            "30",
        ])
        .stdout(Stdio::piped())
        .stderr(log_file(stderr_log))
        .spawn()
        .expect("spawn fastmm fleet --resume");
    let resumed_addr = read_banner(&mut child);
    assert_eq!(resumed_addr, addr, "resume must rebind the same address");
    child
}

struct Control {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Control {
    fn connect(addr: &str) -> Control {
        let writer = TcpStream::connect(addr).expect("connect control");
        let reader = BufReader::new(writer.try_clone().expect("clone"));
        Control { writer, reader }
    }

    fn roundtrip(&mut self, req: &Request) -> Response {
        let mut line = req.to_line();
        line.push('\n');
        self.writer.write_all(line.as_bytes()).expect("send");
        let mut reply = String::new();
        assert!(
            self.reader.read_line(&mut reply).expect("recv") > 0,
            "router hung up on a control verb"
        );
        Response::parse(reply.trim_end()).expect("reply parses")
    }

    /// Poll `fleet-stats` until `pred` holds; returns the matching stats.
    fn wait_for(
        &mut self,
        what: &str,
        pred: impl Fn(&std::collections::BTreeMap<String, String>) -> bool,
    ) -> std::collections::BTreeMap<String, String> {
        let deadline = Instant::now() + Duration::from_secs(15);
        let mut i = 0u32;
        loop {
            let resp = self.roundtrip(&Request::new(&format!("fs{i}"), Kind::FleetStats));
            assert_eq!(resp.status, Status::Ok, "fleet-stats: {resp:?}");
            if pred(&resp.result) {
                return resp.result;
            }
            assert!(
                Instant::now() < deadline,
                "timed out waiting for {what}; last stats: {:?}",
                resp.result
            );
            i += 1;
            thread::sleep(Duration::from_millis(25));
        }
    }
}

/// Phase 1: two SIGKILLs of shard 1 are healed, the third is quarantined.
/// Returns the fleet stats that showed the open breaker.
fn crash_loop_shard_one(addr: &str) -> std::collections::BTreeMap<String, String> {
    let mut control = Control::connect(addr);
    for round in 1..=2u32 {
        let killed = control.roundtrip(
            &Request::new(&format!("ks{round}"), Kind::KillShard).with_param("shard", "1"),
        );
        assert_eq!(killed.status, Status::Ok, "kill-shard: {killed:?}");
        control.wait_for("respawn", |m| {
            m.get("shard1_state").map(String::as_str) == Some("healthy")
                && m.get("restarts").map(String::as_str) == Some(&round.to_string() as &str)
        });
    }
    let killed = control.roundtrip(&Request::new("ks3", Kind::KillShard).with_param("shard", "1"));
    assert_eq!(killed.status, Status::Ok, "kill-shard: {killed:?}");
    control.wait_for("breaker", |m| {
        m.get("shard1_state").map(String::as_str) == Some("quarantined")
            && m.get("breaker_open").map(String::as_str) == Some("1")
    })
}

fn chaos_loadgen(addr: &str) -> std::process::Output {
    fastmm_cmd()
        .args([
            "loadgen",
            "--fleet",
            "--addr",
            addr,
            "--conns",
            "6",
            "--requests",
            "80",
            "--seed",
            "7",
            "--reconnect",
            "12",
            "--kill-router-after",
            "120",
            "--shutdown",
        ])
        .output()
        .expect("run fastmm loadgen --fleet")
}

/// One full kill-heal-quarantine-kill-resume pass; returns the
/// client-observed loadgen summary (the part of the JSON line before the
/// embedded server counters, which legitimately depend on *when* the
/// router died relative to each in-flight request).
fn one_chaos_pass(dir: &Path, tag: &str) -> String {
    let path = |name: &str| dir.join(format!("{tag}_{name}"));
    let journal = path("journal.jsonl").to_str().expect("utf8").to_string();
    let shard_metrics = path("shard_metrics").to_str().expect("utf8").to_string();
    let (mut fleet, addr) = spawn_fleet(&journal, &shard_metrics, &path("fleet.err"));
    let phase1 = crash_loop_shard_one(&addr);
    std::fs::write(path("phase1.txt"), format!("{phase1:?}\n")).expect("save phase 1");

    let load_addr = addr.clone();
    let load = thread::spawn(move || chaos_loadgen(&load_addr));

    // kill-router SIGKILLs the fleet process mid-run; wait() observes
    // the death (a signal, not an exit code), then the resume relaunch
    // rebinds the same address for the reconnecting loadgen workers.
    let died = fleet.wait().expect("wait on killed fleet");
    assert_eq!(died.code(), None, "the router must die by signal, not exit");
    let mut resumed = spawn_resume(&journal, &addr, &path("resume.err"));

    let load = load.join().expect("loadgen thread");
    let summary = String::from_utf8_lossy(&load.stdout).trim().to_string();
    std::fs::write(path("loadgen.json"), &summary).expect("save summary");
    assert_eq!(
        load.status.code(),
        Some(0),
        "chaos loadgen failed\nstdout: {summary}\nstderr: {}",
        String::from_utf8_lossy(&load.stderr)
    );
    assert!(summary.contains("\"sent\":480"), "{summary}");
    assert!(summary.contains("\"lost\":0"), "{summary}");
    assert!(summary.contains("\"mismatched\":0"), "{summary}");
    assert!(summary.contains("\"router_killed\":1"), "{summary}");
    assert!(summary.contains("\"ok\":1"), "{summary}");

    // The resumed router drains to exit 0: its own conservation check
    // (router-level and per acked shard) ran and passed.
    let status = resumed.wait().expect("resumed fleet exits");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut resumed.stdout.take().expect("stdout piped"), &mut rest)
        .expect("read drained lines");
    std::fs::write(path("resume.out"), &rest).expect("save resume stdout");
    assert_eq!(
        status.code(),
        Some(0),
        "resumed fleet must drain and exit 0"
    );
    assert!(rest.contains("fastmm fleet drained: accepted="), "{rest}");
    let field = |key: &str| -> u64 {
        let tag = format!("{key}=");
        let at = rest
            .find(&tag)
            .unwrap_or_else(|| panic!("no {key} in {rest}"));
        rest[at + tag.len()..]
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .expect("counter parses")
    };
    assert_eq!(
        field("accepted"),
        field("completed") + field("errored") + field("cancelled") + field("deadline_exceeded"),
        "conservation law violated across the router SIGKILL: {rest}"
    );
    assert!(
        field("journal_replayed") > 0,
        "resume must have replayed journal records: {rest}"
    );

    // Conservation straight off the wire too: the shutdown ack embedded
    // in the summary carries the resumed router's final core counters.
    let counter = |key: &str| -> u64 {
        let tag = format!("\"{key}\":\"");
        let at = summary
            .find(&tag)
            .unwrap_or_else(|| panic!("no {key} in {summary}"));
        summary[at + tag.len()..]
            .split('"')
            .next()
            .unwrap()
            .parse()
            .expect("counter parses")
    };
    assert_eq!(
        counter("accepted"),
        counter("completed")
            + counter("errored")
            + counter("cancelled")
            + counter("deadline_exceeded"),
        "wire conservation law violated: {summary}"
    );

    summary
        .split(",\"server\"")
        .next()
        .expect("summary prefix")
        .to_string()
}

#[test]
fn crash_loop_and_router_kill_survive_with_zero_loss_and_reproduce() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/chaos-smoke");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create artifact dir");

    let first = one_chaos_pass(&dir, "a");
    // Every status in the mix is a pure function of the request spec, so
    // the client-observed summary reproduces even though the router was
    // SIGKILLed at a scheduler-dependent instant.
    let second = one_chaos_pass(&dir, "b");
    assert_eq!(
        first, second,
        "same-seed chaos rerun must reproduce the client-observed summary"
    );
}

#[test]
fn loadgen_rejects_inconsistent_chaos_flags_with_exit_2() {
    // --kill-router-after without --fleet.
    let out = fastmm_cmd()
        .args([
            "loadgen",
            "--addr",
            "127.0.0.1:1",
            "--kill-router-after",
            "5",
            "--reconnect",
            "2",
        ])
        .output()
        .expect("run loadgen");
    assert_eq!(out.status.code(), Some(2), "needs --fleet");

    // --kill-router-after without a reconnect budget can only lose.
    let out = fastmm_cmd()
        .args([
            "loadgen",
            "--fleet",
            "--addr",
            "127.0.0.1:1",
            "--kill-router-after",
            "5",
        ])
        .output()
        .expect("run loadgen");
    assert_eq!(out.status.code(), Some(2), "needs --reconnect");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--reconnect"),
        "stderr must point at the missing flag"
    );

    // --resume with --attach is contradictory.
    let out = fastmm_cmd()
        .args([
            "fleet",
            "--resume",
            "/nonexistent/journal.jsonl",
            "--attach",
            "127.0.0.1:1",
        ])
        .output()
        .expect("run fleet");
    assert_eq!(
        out.status.code(),
        Some(2),
        "--resume + --attach must exit 2"
    );

    // --resume on a journal that doesn't exist fails loudly, not silently
    // starting an empty fleet.
    let out = fastmm_cmd()
        .args(["fleet", "--resume", "/nonexistent/journal.jsonl"])
        .output()
        .expect("run fleet");
    assert_eq!(out.status.code(), Some(2), "missing journal must exit 2");
}
