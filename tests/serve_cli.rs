//! Binary-level contract for `fastmm serve` + `fastmm loadgen`: the two
//! subcommands must compose from the shell — ephemeral port printed on
//! stdout, seeded loadgen summary on one line, graceful shutdown with
//! balanced counters and exit code 0, and flushed `serve_*` metrics in the
//! JSONL file. The chaos smoke run (EXPERIMENTS.md §X13) leaves its
//! metrics, loadgen summary and server stdout under `target/serve-smoke/`.

use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::process::{Child, Command, Output, Stdio};

fn fastmm_cmd() -> Command {
    Command::new(env!("CARGO_BIN_EXE_fastmm"))
}

/// Start `fastmm serve`, parse the advertised ephemeral address off its
/// first stdout line, and hand back (child, addr).
fn spawn_server(extra: &[&str]) -> (Child, String) {
    let mut child = fastmm_cmd()
        .args(["serve", "--queue-depth", "32", "--workers", "4"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn fastmm serve");
    let mut first = String::new();
    BufReader::new(child.stdout.as_mut().expect("stdout piped"))
        .read_line(&mut first)
        .expect("read listening line");
    let addr = first
        .trim()
        .strip_prefix("fastmm serve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {first:?}"))
        .to_string();
    (child, addr)
}

#[test]
fn serve_and_loadgen_compose_from_the_shell() {
    let metrics = {
        let mut p = std::env::temp_dir();
        p.push(format!("fastmm_serve_cli_{}.jsonl", std::process::id()));
        p
    };
    let _ = std::fs::remove_file(&metrics);
    let (mut server, addr) = spawn_server(&["--metrics", metrics.to_str().unwrap()]);

    let load = fastmm_cmd()
        .args([
            "loadgen",
            "--addr",
            &addr,
            "--conns",
            "2",
            "--requests",
            "40",
            "--seed",
            "7",
            "--burst",
            "48",
            "--shutdown",
        ])
        .output()
        .expect("run fastmm loadgen");
    let summary = String::from_utf8_lossy(&load.stdout);
    assert_eq!(
        load.status.code(),
        Some(0),
        "loadgen failed\nstdout: {summary}\nstderr: {}",
        String::from_utf8_lossy(&load.stderr)
    );
    // One-line JSON summary with the no-lost-jobs invariant visible.
    let line = summary.trim();
    assert!(
        !line.contains('\n'),
        "summary must be a single line: {summary}"
    );
    assert!(line.contains("\"lost\":0"), "{line}");
    assert!(line.contains("\"ok\":1"), "{line}");
    // The paused burst against a depth-32 queue sheds exactly 48 - 32.
    assert!(line.contains("\"burst_shed\":16"), "{line}");

    // The --shutdown handshake must leave the server drained: exit 0 and
    // a balanced final-counters line on stdout.
    let status = server.wait().expect("server exits");
    assert_eq!(status.code(), Some(0), "server must drain and exit 0");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut server.stdout.take().expect("stdout piped"), &mut rest)
        .expect("read drained line");
    assert!(rest.contains("fastmm serve drained: accepted="), "{rest}");

    // Counters survived the drain into the metrics file.
    let flushed = std::fs::read_to_string(&metrics).expect("metrics flushed");
    for key in [
        "serve_accepted",
        "serve_completed",
        "serve_shed",
        "serve_latency_us",
    ] {
        assert!(flushed.contains(key), "metrics missing {key}:\n{flushed}");
    }
    let _ = std::fs::remove_file(&metrics);
}

#[test]
fn loadgen_exits_nonzero_when_the_server_vanishes() {
    // A server that is shut down out from under the client: whatever the
    // failure mode, loadgen must not report success.
    let (mut server, addr) = spawn_server(&[]);
    server.kill().expect("kill server");
    server.wait().expect("reap server");
    let load = fastmm_cmd()
        .args([
            "loadgen",
            "--addr",
            &addr,
            "--conns",
            "1",
            "--requests",
            "5",
        ])
        .output()
        .expect("run fastmm loadgen");
    assert_ne!(load.status.code(), Some(0), "lost replies must fail loudly");
}

/// The seeded chaos mix against a depth-32, 4-worker server: 1000
/// requests, ≥10% poison/oversized, a 64-request burst at a paused pool,
/// then graceful shutdown.
fn chaos_loadgen(addr: &str) -> Output {
    fastmm_cmd()
        .args([
            "loadgen",
            "--addr",
            addr,
            "--conns",
            "4",
            "--requests",
            "250",
            "--seed",
            "20260807",
            "--burst",
            "64",
            "--shutdown",
        ])
        .output()
        .expect("run fastmm loadgen")
}

#[test]
fn chaos_load_drains_traces_and_reproduces() {
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/serve-smoke");
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).expect("create artifact dir");
    let metrics = out.join("serve_metrics.jsonl");
    let (mut server, addr) = spawn_server(&["--metrics", metrics.to_str().unwrap()]);
    let load = chaos_loadgen(&addr);
    let summary = String::from_utf8_lossy(&load.stdout).into_owned();
    std::fs::write(out.join("loadgen.json"), &summary).expect("write summary");
    assert_eq!(load.status.code(), Some(0), "loadgen failed: {summary}");
    // Zero lost accepted jobs, reproducible shed at the overload tier.
    for key in ["\"lost\":0", "\"ok\":1", "\"burst_shed\":32"] {
        assert!(summary.contains(key), "missing {key}: {summary}");
    }

    // Graceful drain: exit 0 with the conservation law in the last line.
    let status = server.wait().expect("server exits");
    let mut rest = String::new();
    server
        .stdout
        .take()
        .expect("stdout piped")
        .read_to_string(&mut rest)
        .expect("read drained line");
    std::fs::write(out.join("serve.out"), &rest).expect("write server stdout");
    assert_eq!(status.code(), Some(0), "server must drain and exit 0");
    assert!(rest.contains("fastmm serve drained:"), "{rest}");
    let flushed = std::fs::read_to_string(&metrics).expect("metrics flushed");
    for key in ["serve_accepted", "serve_latency_us"] {
        assert!(flushed.contains(key), "metrics missing {key}");
    }

    // Per-job span trees reconstruct from the metrics file.
    let traces = fastmm_cmd()
        .args([
            "report",
            "--traces",
            metrics.to_str().unwrap(),
            "--top",
            "5",
        ])
        .output()
        .expect("run fastmm report --traces");
    let traces = String::from_utf8_lossy(&traces.stdout);
    assert!(traces.contains("slowest traces (top 5 of"), "{traces}");
    assert!(traces.contains("job."), "{traces}");

    // Same seed, fresh server: the summary reproduces byte for byte.
    let (mut again, addr) = spawn_server(&[]);
    let rerun = chaos_loadgen(&addr);
    assert_eq!(again.wait().expect("server exits").code(), Some(0));
    assert_eq!(String::from_utf8_lossy(&rerun.stdout), summary);
}
