//! Binary-level contract for `fastmm fleet` + `fastmm loadgen --fleet`:
//! the chaos acceptance run of the routed fleet. A router over three
//! spawned shards takes 1040 requests from eight connections while one
//! shard is SIGKILLed mid-run; the run must lose zero replies, keep the
//! fleet conservation law balanced, drain to exit 0, and reproduce the
//! same summary for the same seed. The first run also writes router and
//! shard `--metrics` files, whose merged trace report must show the
//! router's `route.` spans and the shards' `job.` spans; every artifact
//! of that run lands under `target/fleet-smoke/`.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, Command, Stdio};

fn fastmm_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fastmm"))
}

/// Start `fastmm fleet`, parse the advertised router address off its
/// first stdout line, and hand back (child, addr).
fn spawn_fleet(extra: &[&str]) -> (Child, String) {
    let mut child = fastmm_cmd()
        .args([
            "fleet",
            "--shards",
            "3",
            "--queue-depth",
            "32",
            "--workers",
            "2",
            "--seed",
            "7",
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn fastmm fleet");
    let mut first = String::new();
    BufReader::new(child.stdout.as_mut().expect("stdout piped"))
        .read_line(&mut first)
        .expect("read listening line");
    let addr = first
        .trim()
        .strip_prefix("fastmm fleet listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {first:?}"))
        .split(" (")
        .next()
        .unwrap()
        .to_string();
    (child, addr)
}

fn chaos_loadgen(addr: &str) -> std::process::Output {
    fastmm_cmd()
        .args([
            "loadgen",
            "--fleet",
            "--addr",
            addr,
            "--conns",
            "8",
            "--requests",
            "130",
            "--seed",
            "7",
            "--kill-shard-after",
            "40",
            "--shutdown",
        ])
        .output()
        .expect("run fastmm loadgen --fleet")
}

#[test]
fn kill_a_shard_chaos_run_loses_nothing_and_reproduces() {
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/fleet-smoke");
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).expect("create artifact dir");
    let router_metrics = out.join("router_metrics.jsonl");
    let shard_metrics = out.join("shard_metrics");
    let (mut fleet, addr) = spawn_fleet(&[
        "--metrics",
        router_metrics.to_str().unwrap(),
        "--shard-metrics-dir",
        shard_metrics.to_str().unwrap(),
    ]);
    let load = chaos_loadgen(&addr);
    let summary = String::from_utf8_lossy(&load.stdout);
    std::fs::write(out.join("fleet_loadgen.json"), summary.as_bytes()).expect("save summary");
    assert_eq!(
        load.status.code(),
        Some(0),
        "chaos loadgen failed\nstdout: {summary}\nstderr: {}",
        String::from_utf8_lossy(&load.stderr)
    );
    let line = summary.trim().to_string();

    // 8 conns x 130 requests, one shard SIGKILLed mid-run: every request
    // got a reply, the kill verb fired exactly once, nothing mismatched.
    assert!(line.contains("\"sent\":1040"), "{line}");
    assert!(line.contains("\"lost\":0"), "{line}");
    assert!(line.contains("\"mismatched\":0"), "{line}");
    assert!(line.contains("\"killed\":1"), "{line}");
    assert!(line.contains("\"ok\":1"), "{line}");

    // The fleet drains to exit 0 (its own balance asserts ran) and
    // reports both the router counters and the per-shard ack roll-up.
    let status = fleet.wait().expect("fleet exits");
    assert_eq!(status.code(), Some(0), "fleet must drain and exit 0");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut fleet.stdout.take().expect("stdout piped"), &mut rest)
        .expect("read drained lines");
    std::fs::write(out.join("fleet.out"), &rest).expect("save fleet output");
    assert!(rest.contains("fastmm fleet drained: accepted="), "{rest}");
    assert!(rest.contains("shards_killed=1"), "{rest}");
    assert!(rest.contains("fastmm fleet shards: acked=2/3"), "{rest}");

    // The shutdown ack embedded in the summary is the router's final
    // core counters: check the conservation law right off the wire.
    let counter = |key: &str| -> u64 {
        let tag = format!("\"{key}\":\"");
        let at = line
            .find(&tag)
            .unwrap_or_else(|| panic!("no {key} in {line}"));
        line[at + tag.len()..]
            .split('"')
            .next()
            .unwrap()
            .parse()
            .expect("counter parses")
    };
    let accepted = counter("accepted");
    let settled = counter("completed")
        + counter("errored")
        + counter("cancelled")
        + counter("deadline_exceeded");
    assert_eq!(accepted, settled, "fleet conservation law violated: {line}");

    // Router and shard span logs merge into trace trees that attribute
    // the fleet hop: `route.<kind>` spans from the router, `job.<kind>`
    // spans from the shards.
    let mut merged = std::fs::read_to_string(&router_metrics).expect("router metrics flushed");
    let mut shard_files: Vec<_> = std::fs::read_dir(&shard_metrics)
        .expect("shard metrics dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    shard_files.sort();
    for f in shard_files {
        merged.push_str(&std::fs::read_to_string(f).expect("shard metrics"));
    }
    let merged_path = out.join("merged_metrics.jsonl");
    std::fs::write(&merged_path, merged).expect("write merged metrics");
    let report = fastmm_cmd()
        .args([
            "report",
            "--traces",
            merged_path.to_str().unwrap(),
            "--top",
            "5",
        ])
        .output()
        .expect("run fastmm report --traces");
    assert_eq!(report.status.code(), Some(0), "report --traces failed");
    let traces = String::from_utf8_lossy(&report.stdout);
    std::fs::write(out.join("fleet_traces.txt"), traces.as_bytes()).expect("save traces");
    assert!(traces.contains("route."), "no router spans:\n{traces}");
    assert!(traces.contains("job."), "no shard spans:\n{traces}");

    // Same seed, fresh fleet: the summary line reproduces exactly.
    let (mut fleet2, addr2) = spawn_fleet(&[]);
    let load2 = chaos_loadgen(&addr2);
    assert_eq!(load2.status.code(), Some(0));
    assert_eq!(
        String::from_utf8_lossy(&load2.stdout).trim(),
        line,
        "chaos summary must be seed-reproducible"
    );
    assert_eq!(fleet2.wait().expect("fleet2 exits").code(), Some(0));
}

#[test]
fn fleet_rejects_bad_flags_with_exit_2() {
    let out = fastmm_cmd()
        .args(["fleet", "--shards", "0"])
        .output()
        .expect("run fastmm fleet");
    assert_eq!(out.status.code(), Some(2), "bad flag must exit 2");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--shards must be at least 1"),
        "stderr must say what was wrong"
    );

    let out = fastmm_cmd()
        .args([
            "loadgen",
            "--addr",
            "127.0.0.1:1",
            "--kill-shard-after",
            "5",
        ])
        .output()
        .expect("run fastmm loadgen");
    assert_eq!(
        out.status.code(),
        Some(2),
        "--kill-shard-after without --fleet must exit 2"
    );
}
