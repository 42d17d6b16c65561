//! Binary-level contract for the gray-failure resilience layer: the
//! seeded chaos link layer, latency-outlier ejection with probation
//! readmission, and hedged requests under the fleet retry budget.
//!
//! The narrative, end to end in one process tree:
//!   1. a 3-shard fleet comes up with `--chaos-link` browning out shard
//!      0's reply link (a constant per-reply delay — the shard answers
//!      health probes perfectly, which is what makes the failure gray);
//!   2. a seeded loadgen run (840 requests) fires a `stall-shard` verb
//!      mid-run, freezing the victim's link entirely for a window;
//!   3. the run ends with `lost: 0`, the fleet conservation law AND the
//!      hedge conservation law balanced at drain, the browned-out shard
//!      ejected then re-admitted, and hedges actually winning;
//!   4. the same seed with hedging disabled yields a visibly worse
//!      client-observed p95 — hedging pays for its duplicate work;
//!   5. a same-seed rerun reproduces the loadgen summary byte for byte
//!      once the documented timing-dependent counters are masked.
//!
//! Beside it: the same narrative at 1440 requests (long enough for
//! readmission with an optimized binary) with its masked rerun, and the
//! hedged-vs-unhedged p95 comparison with ejection turned off, which
//! isolates hedging from ejection.
//!
//! Every fleet's stdout and stderr and every loadgen summary land under
//! `target/gray-smoke/`.

use fastmm::serve::proto::{Kind, Request, Response, Status};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

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

/// Spawn a gray fleet: shard 0's reply link delayed 250ms per reply.
/// `extra` adds hedging/ejection flags; everything else, including the
/// chaos seed, stays fixed. The fleet's stderr goes to `stderr_log`.
fn spawn_gray_fleet(extra: &[&str], stderr_log: &Path) -> (Child, String) {
    let mut child = fastmm_cmd()
        .args([
            "fleet",
            "--shards",
            "3",
            "--seed",
            "7",
            "--probe-interval-ms",
            "30",
            "--chaos-link",
            "seed=7,delay-ms=250@shard0",
            "--eject-probation-ms",
            "700",
            // A full budget keeps the p95 comparison below deterministic:
            // a tight budget denies a timing-dependent subset of hedges,
            // which swings the hedged run's p95 by whole link-delays.
            "--retry-budget-pct",
            "100",
        ])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(std::fs::File::create(stderr_log).expect("create fleet stderr log"))
        .spawn()
        .expect("spawn fastmm fleet");
    let addr = read_banner(&mut child);
    (child, addr)
}

/// 6 connections x `requests` seeded requests, with one `stall-shard`
/// verb fired after 100 sends and a drain at the end.
fn gray_loadgen(addr: &str, requests: usize) -> std::process::Output {
    fastmm_cmd()
        .args([
            "loadgen",
            "--fleet",
            "--addr",
            addr,
            "--conns",
            "6",
            "--requests",
            &requests.to_string(),
            "--seed",
            "7",
            "--stall-shard-after",
            "100",
            "--shutdown",
        ])
        .output()
        .expect("run fastmm loadgen --fleet")
}

/// Where every run of this file leaves its artifacts.
fn artifact_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target/gray-smoke");
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    dir
}

/// Pull `key=<n>` out of the fleet's drained stdout lines.
fn stdout_field(text: &str, key: &str) -> u64 {
    let tag = format!("{key}=");
    let at = text
        .find(&tag)
        .unwrap_or_else(|| panic!("no {key} in {text}"));
    text[at + tag.len()..]
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap_or_else(|_| panic!("{key} not numeric in {text}"))
}

/// Pull `p95_us=<n>` out of the loadgen's stderr latency line.
fn stderr_p95(stderr: &str) -> u64 {
    stdout_field(
        stderr
            .lines()
            .find(|l| l.starts_with("loadgen latency:"))
            .unwrap_or_else(|| panic!("no latency line in {stderr}")),
        "p95_us",
    )
}

/// Mask the documented timing-dependent counters so the rest of the
/// JSON line can be compared byte for byte across same-seed runs.
fn mask_timing_counters(line: &str) -> String {
    let mut out = line.to_string();
    for key in ["hedged", "ejected_observed", "retry_budget_exhausted"] {
        let tag = format!("\"{key}\":");
        let at = out
            .find(&tag)
            .unwrap_or_else(|| panic!("no {key} in {out}"));
        let start = at + tag.len();
        let end = start
            + out[start..]
                .find(|c: char| !c.is_ascii_digit())
                .expect("counter is followed by a delimiter");
        out.replace_range(start..end, "_");
    }
    out
}

struct GrayRun {
    summary: String,
    p95_us: u64,
    fleet_stdout: String,
}

/// One full fleet + loadgen pass; asserts the invariants every run must
/// uphold (zero loss, both conservation laws), saves its artifacts as
/// `target/gray-smoke/<tag>_*`, and returns what the cross-run
/// comparisons need.
fn one_gray_pass(extra: &[&str], requests: usize, tag: &str) -> GrayRun {
    let dir = artifact_dir();
    let (mut fleet, addr) = spawn_gray_fleet(extra, &dir.join(format!("{tag}_fleet.err")));
    let load = gray_loadgen(&addr, requests);
    let summary = String::from_utf8_lossy(&load.stdout).trim().to_string();
    let load_stderr = String::from_utf8_lossy(&load.stderr).to_string();
    std::fs::write(dir.join(format!("{tag}_loadgen.json")), &summary).expect("save summary");
    std::fs::write(dir.join(format!("{tag}_loadgen.err")), &load_stderr).expect("save stderr");
    assert_eq!(
        load.status.code(),
        Some(0),
        "gray loadgen failed\nstdout: {summary}\nstderr: {load_stderr}"
    );
    assert!(
        summary.contains(&format!("\"sent\":{}", 6 * requests)),
        "{summary}"
    );
    assert!(summary.contains("\"lost\":0"), "{summary}");
    assert!(summary.contains("\"mismatched\":0"), "{summary}");
    assert!(summary.contains("\"stalled\":1"), "{summary}");
    assert!(summary.contains("\"ok\":1"), "{summary}");

    // The fleet drains to exit 0 only if its own conservation check —
    // including the hedge law — passed.
    let status = fleet.wait().expect("fleet exits");
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut fleet.stdout.take().expect("stdout piped"), &mut rest)
        .expect("read drained lines");
    std::fs::write(dir.join(format!("{tag}_fleet.out")), &rest).expect("save fleet stdout");
    assert_eq!(status.code(), Some(0), "fleet must drain and exit 0");
    assert!(rest.contains("fastmm fleet drained: accepted="), "{rest}");
    assert_eq!(
        stdout_field(&rest, "accepted"),
        stdout_field(&rest, "completed")
            + stdout_field(&rest, "errored")
            + stdout_field(&rest, "cancelled")
            + stdout_field(&rest, "deadline_exceeded"),
        "fleet conservation law violated: {rest}"
    );
    assert_eq!(
        stdout_field(&rest, "hedges_launched"),
        stdout_field(&rest, "hedges_won")
            + stdout_field(&rest, "hedges_lost")
            + stdout_field(&rest, "hedges_cancelled"),
        "hedge conservation law violated: {rest}"
    );

    GrayRun {
        summary,
        p95_us: stderr_p95(&load_stderr),
        fleet_stdout: rest,
    }
}

/// The browned-out shard was ejected as a latency outlier and, once its
/// probation passed, re-admitted by a clean probe.
#[track_caller]
fn assert_ejected_then_readmitted(run: &GrayRun) {
    let out = &run.fleet_stdout;
    assert!(
        stdout_field(out, "ejections") >= 1,
        "no ejection despite a 250ms gray link: {out}"
    );
    assert!(
        stdout_field(out, "readmissions") >= 1,
        "ejected shard never re-admitted: {out}"
    );
}

#[test]
fn gray_fleet_survives_stall_with_hedging_ejection_and_zero_loss() {
    let hedged = one_gray_pass(&[], 140, "default_hedged");
    assert_ejected_then_readmitted(&hedged);
    assert!(
        stdout_field(&hedged.fleet_stdout, "hedges_launched") >= 1,
        "auto-p95 hedging never fired: {}",
        hedged.fleet_stdout
    );
    assert!(
        stdout_field(&hedged.fleet_stdout, "hedges_won") >= 1,
        "no hedge ever won against a 250ms link delay: {}",
        hedged.fleet_stdout
    );
    assert!(hedged.summary.contains("\"hedged\":"), "{}", hedged.summary);

    // Same seed, hedging off: every request caught by the gray link
    // waits out the full delay, so the client-observed p95 must be
    // visibly worse than the hedged run's (~180-470ms vs ~1s here; the
    // strict `<` keeps the assertion robust to machine speed).
    let unhedged = one_gray_pass(&["--hedge-ms", "0"], 140, "default_unhedged");
    assert_ejected_then_readmitted(&unhedged);
    assert_eq!(
        stdout_field(&unhedged.fleet_stdout, "hedges_launched"),
        0,
        "--hedge-ms 0 must disable hedging: {}",
        unhedged.fleet_stdout
    );
    assert!(
        hedged.p95_us < unhedged.p95_us,
        "hedging must improve tail latency: hedged p95 {}us vs unhedged {}us",
        hedged.p95_us,
        unhedged.p95_us
    );

    // Same-seed rerun of the full stall-eject-hedge-readmit sequence:
    // byte-identical once the three documented timing-dependent
    // counters are masked — every status is a pure function of the
    // request spec, and no idempotency key ever settles twice.
    let rerun = one_gray_pass(&[], 140, "default_rerun");
    assert_ejected_then_readmitted(&rerun);
    assert_eq!(
        mask_timing_counters(&hedged.summary),
        mask_timing_counters(&rerun.summary),
        "same-seed gray rerun must reproduce the client-observed summary"
    );
}

#[test]
fn long_gray_run_ejects_readmits_and_reproduces_masked() {
    // 6 conns x 240 requests = 1440 seeded requests keep the run going
    // well past the 700 ms probation even with an optimized binary, so
    // the ejected shard has time to be re-admitted.
    let first = one_gray_pass(&[], 240, "gray1");
    assert_ejected_then_readmitted(&first);
    assert!(
        stdout_field(&first.fleet_stdout, "hedges_launched") >= 1,
        "auto-p95 hedging never fired: {}",
        first.fleet_stdout
    );
    let rerun = one_gray_pass(&[], 240, "gray2");
    assert_eq!(
        mask_timing_counters(&first.summary),
        mask_timing_counters(&rerun.summary),
        "same-seed gray rerun must reproduce the client-observed summary"
    );
}

#[test]
fn hedging_improves_the_tail_while_the_gray_shard_stays_routable() {
    // `--eject-k 1000` keeps the browned-out shard routable (its 250 ms
    // delay is far below 1000x the median), so every request routed to
    // shard 0 meets the delay unless a hedge to a healthy shard answers
    // first: the comparison isolates hedging from ejection.
    let hedged = one_gray_pass(
        &["--eject-k", "1000", "--hedge-ms", "20"],
        30,
        "routable_hedged",
    );
    let unhedged = one_gray_pass(
        &["--eject-k", "1000", "--hedge-ms", "0"],
        30,
        "routable_unhedged",
    );
    assert_eq!(
        stdout_field(&unhedged.fleet_stdout, "hedges_launched"),
        0,
        "--hedge-ms 0 must disable hedging: {}",
        unhedged.fleet_stdout
    );
    assert!(
        stdout_field(&hedged.fleet_stdout, "hedges_won") >= 1,
        "no hedge ever won against a 250ms link delay: {}",
        hedged.fleet_stdout
    );
    assert!(
        hedged.p95_us < unhedged.p95_us,
        "hedging must improve tail latency: hedged p95 {}us vs unhedged {}us",
        hedged.p95_us,
        unhedged.p95_us
    );
}

#[test]
fn stall_shard_verb_requires_a_chaos_fleet() {
    // A fleet WITHOUT --chaos-link must refuse the stall-shard verb
    // over the wire with a one-line reason, not wedge or oblige.
    let mut child = fastmm_cmd()
        .args(["fleet", "--shards", "2", "--seed", "3"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn fleet");
    let addr = read_banner(&mut child);

    let stream = TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let mut line = Request::new("s1", Kind::StallShard).to_line();
    line.push('\n');
    writer.write_all(line.as_bytes()).expect("send stall-shard");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    let resp = Response::parse(reply.trim_end()).expect("reply parses");
    assert_eq!(resp.status, Status::Error, "reply: {resp:?}");
    assert!(
        resp.reason.contains("--chaos-link"),
        "the refusal must point at the missing flag: {}",
        resp.reason
    );

    let mut stop = Request::new("stop", Kind::Shutdown).to_line();
    stop.push('\n');
    writer.write_all(stop.as_bytes()).expect("send shutdown");
    reader.read_line(&mut String::new()).expect("read ack");
    assert_eq!(child.wait().expect("fleet exits").code(), Some(0));
}

#[test]
fn gray_flags_fail_fast_with_exit_2_and_one_line_errors() {
    // Malformed --chaos-link grammar.
    let out = fastmm_cmd()
        .args(["fleet", "--shards", "2", "--chaos-link", "delay-ms=banana"])
        .output()
        .expect("run fleet");
    assert_eq!(out.status.code(), Some(2), "bad chaos-link spec");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--chaos-link"),
        "stderr must name the offending flag"
    );

    // --chaos-link stall-after without a site is ambiguous.
    let out = fastmm_cmd()
        .args(["fleet", "--shards", "2", "--chaos-link", "stall-after=40"])
        .output()
        .expect("run fleet");
    assert_eq!(out.status.code(), Some(2), "siteless stall-after");

    // A retry budget over 100% of accepted is nonsense.
    let out = fastmm_cmd()
        .args(["fleet", "--shards", "2", "--retry-budget-pct", "101"])
        .output()
        .expect("run fleet");
    assert_eq!(out.status.code(), Some(2), "retry budget over 100");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--retry-budget-pct"),
        "stderr must name the offending flag"
    );

    // An ejection threshold at or below 1x the median would eject the
    // median itself.
    let out = fastmm_cmd()
        .args(["fleet", "--shards", "2", "--eject-k", "0.5"])
        .output()
        .expect("run fleet");
    assert_eq!(out.status.code(), Some(2), "eject-k below 1");

    // --stall-shard-after is a fleet chaos flag.
    let out = fastmm_cmd()
        .args([
            "loadgen",
            "--addr",
            "127.0.0.1:1",
            "--stall-shard-after",
            "5",
        ])
        .output()
        .expect("run loadgen");
    assert_eq!(out.status.code(), Some(2), "needs --fleet");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--fleet"),
        "stderr must point at the missing flag"
    );
}
