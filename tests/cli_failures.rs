//! CLI failure-path and fault-injection contract tests, run against the
//! real `fastmm` binary.
//!
//! The contract under test: every user mistake (bad flag, bad spec,
//! unreadable/unwritable path) dies with exit code 2 and a one-line
//! error on stderr — never a panic backtrace — and the fault-injection
//! commands report recovered products plus deterministic counters.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fastmm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fastmm"))
        .args(args)
        .output()
        .expect("spawn fastmm")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// A scratch path that does not survive the test.
fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("fastmm_cli_{}_{name}", std::process::id()));
    p
}

#[track_caller]
fn assert_exit_2_clean(out: &Output) {
    assert_eq!(out.status.code(), Some(2), "stderr: {}", stderr(out));
    let err = stderr(out);
    assert!(
        !err.contains("panicked"),
        "expected a clean error, got a panic:\n{err}"
    );
    assert!(!err.trim().is_empty(), "exit 2 must explain itself");
}

#[test]
fn unknown_flag_exits_2() {
    let out = fastmm(&["io", "--n", "8", "--m", "64", "--polciy", "lru"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("unknown flag '--polciy'"));
}

#[test]
fn tables_without_a_section_exits_2() {
    let out = fastmm(&["tables"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("usage: fastmm tables"));
}

#[test]
fn unknown_command_exits_2() {
    let out = fastmm(&["frobnicate"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("unknown command"));
}

#[test]
fn dot_unwritable_out_exits_2_without_backtrace() {
    let out = fastmm(&["dot", "--n", "2", "--out", "/nonexistent-dir/h.dot"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("cannot write"));
}

#[test]
fn metrics_unwritable_path_exits_2_before_running() {
    let out = fastmm(&[
        "io",
        "--n",
        "8",
        "--m",
        "64",
        "--metrics",
        "/nonexistent-dir/m.jsonl",
    ]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("cannot open metrics path"));
    // Fail-fast: the command must not have run first.
    assert!(stdout(&out).is_empty(), "stdout: {}", stdout(&out));
}

#[test]
fn metrics_missing_value_exits_2() {
    let out = fastmm(&["io", "--n", "8", "--m", "64", "--metrics"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("--metrics expects a file path"));
}

#[test]
fn sweep_report_unreadable_file_exits_2() {
    let out = fastmm(&["sweep", "report", "--file", "/no/such/sweep.jsonl"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("cannot read"));
}

#[test]
fn sweep_diff_unreadable_file_exits_2() {
    let out = fastmm(&[
        "sweep",
        "diff",
        "--base",
        "/no/such/a.jsonl",
        "--cand",
        "/no/such/b.jsonl",
    ]);
    assert_exit_2_clean(&out);
}

#[test]
fn faults_bad_spec_exits_2() {
    let out = fastmm(&["faults", "--spec", "crash=2.0"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("probability outside [0,1]"));
}

#[test]
fn faults_bad_recovery_exits_2() {
    let out = fastmm(&["faults", "--recovery", "hope"]);
    assert_exit_2_clean(&out);
}

#[test]
fn faults_unknown_schedule_exits_2() {
    for schedule in ["mesh", "cannon-threaded"] {
        let out = fastmm(&["faults", "--schedule", schedule]);
        assert_exit_2_clean(&out);
        assert!(stderr(&out).contains("unknown schedule"), "{schedule}");
    }
}

/// The algorithm list an unknown-algorithm error prints, in order.
fn listed_algorithms(err: &str) -> Vec<String> {
    let list = err
        .split_once(" (")
        .and_then(|(_, rest)| rest.split_once(')'))
        .unwrap_or_else(|| panic!("no algorithm list in {err:?}"))
        .0;
    list.split('|').map(str::to_string).collect()
}

#[test]
fn unknown_algorithm_error_names_exactly_the_accepted_algorithms() {
    let catalog = ["strassen", "winograd", "classical"];
    for args in [
        &["io", "--alg", "ks", "--n", "8", "--m", "64"][..],
        &["faults", "--schedule", "caps", "--alg", "ks"][..],
    ] {
        let out = fastmm(args);
        assert_exit_2_clean(&out);
        let err = stderr(&out);
        assert!(err.contains("unknown algorithm 'ks' ("), "{args:?}: {err}");
        assert_eq!(listed_algorithms(&err), catalog, "{args:?}: {err}");
    }
    // `multiply` also runs the alternative-basis algorithm.
    let out = fastmm(&["multiply", "--alg", "kss", "--n", "4"]);
    assert_exit_2_clean(&out);
    let err = stderr(&out);
    assert_eq!(
        listed_algorithms(&err),
        ["strassen", "winograd", "classical", "ks"],
        "{err}"
    );
    // Every listed name really is accepted.
    for alg in catalog {
        let out = fastmm(&["io", "--alg", alg, "--n", "8", "--m", "64"]);
        assert!(out.status.success(), "io --alg {alg}: {}", stderr(&out));
    }
    let out = fastmm(&["multiply", "--alg", "ks", "--n", "4"]);
    assert!(out.status.success(), "multiply --alg ks: {}", stderr(&out));
}

#[test]
fn fleet_poll_ms_is_an_unknown_flag() {
    let out = fastmm(&["fleet", "--poll-ms", "5"]);
    assert_exit_2_clean(&out);
    let err = stderr(&out);
    assert!(err.contains("unknown flag '--poll-ms'"), "{err}");
}

#[test]
fn io_faults_requires_flush_every() {
    let out = fastmm(&["io", "--n", "8", "--m", "64", "--faults", "seed=3"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("flush-every"));
}

#[test]
fn faults_recovers_product_and_is_deterministic() {
    let args = [
        "faults",
        "--schedule",
        "cannon",
        "--n",
        "12",
        "--p",
        "3",
        "--spec",
        "seed=7,crash=0.1,drop=0.05,dup=0.02,retries=8",
        "--recovery",
        "checkpoint:2",
    ];
    let a = fastmm(&args);
    assert_eq!(a.status.code(), Some(0), "stderr: {}", stderr(&a));
    let text = stdout(&a);
    assert!(text.contains("matches fault-free run"), "{text}");
    assert!(text.contains("recovery words"), "{text}");
    // Identical invocation, identical counters — byte for byte.
    let b = fastmm(&args);
    assert_eq!(stdout(&b), text, "same seed must reproduce the same run");
}

#[test]
fn io_faults_reports_recovery_io() {
    let out = fastmm(&[
        "io",
        "--n",
        "16",
        "--m",
        "64",
        "--faults",
        "flush-every=512",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("matches fault-free run"), "{text}");
    assert!(text.contains("recovery I/O"), "{text}");
}

#[test]
fn non_numeric_flag_value_exits_2() {
    let out = fastmm(&["io", "--n", "eight", "--m", "64"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("--n expects a number, got 'eight'"));
}

#[test]
fn flag_missing_its_numeric_value_exits_2() {
    // A trailing `--m` swallows no value, so the parser sees the boolean
    // placeholder — still a clean exit 2, not a panic.
    let out = fastmm(&["io", "--n", "8", "--m"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("--m expects a number, got 'true'"));
}

#[test]
fn bounds_non_numeric_value_exits_2() {
    let out = fastmm(&["bounds", "--n", "x", "--p", "49"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("--n expects a number, got 'x'"));
}

#[test]
fn loadgen_without_addr_exits_2_with_usage() {
    let out = fastmm(&["loadgen", "--conns", "2"]);
    assert_exit_2_clean(&out);
    let err = stderr(&out);
    assert!(err.contains("--addr <host:port> is required"), "{err}");
    assert!(err.contains("usage: fastmm loadgen"), "{err}");
}

#[test]
fn loadgen_unknown_flag_exits_2() {
    let out = fastmm(&["loadgen", "--addr", "127.0.0.1:1", "--conn", "2"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("unknown flag '--conn'"));
}

#[test]
fn serve_unknown_flag_exits_2() {
    let out = fastmm(&["serve", "--queue", "8"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("unknown flag '--queue'"));
}

#[test]
fn serve_unbindable_addr_exits_2_with_usage() {
    let out = fastmm(&["serve", "--addr", "203.0.113.1:1"]);
    assert_exit_2_clean(&out);
    let err = stderr(&out);
    assert!(err.contains("serve: cannot bind"), "{err}");
    assert!(err.contains("usage: fastmm serve"), "{err}");
}

#[test]
fn serve_non_numeric_queue_depth_exits_2() {
    let out = fastmm(&["serve", "--queue-depth", "deep"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("--queue-depth expects a number"));
}

#[test]
fn sweep_injected_hang_times_out_and_sweep_continues() {
    let out_path = scratch("hang.jsonl");
    let _ = std::fs::remove_file(&out_path);
    let out = fastmm(&[
        "sweep",
        "run",
        "--spec",
        "smoke",
        "--out",
        out_path.to_str().unwrap(),
        "--max-cells",
        "2",
        "--jobs",
        "1",
        "--cell-timeout",
        "150",
        "--inject-hang",
        "0:10000",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("1 timed out"), "{}", stdout(&out));
    let _ = std::fs::remove_file(&out_path);
}

#[test]
fn every_command_rejects_an_unknown_flag_with_its_own_usage() {
    for cmd in [
        "multiply",
        "kernel",
        "bounds",
        "verify",
        "io",
        "faults",
        "pebble",
        "dot",
        "tables",
        "report",
        "bench run",
        "bench diff",
        "bench list",
        "sweep run",
        "sweep resume",
        "sweep report",
        "sweep diff",
        "sweep specs",
        "serve",
        "fleet",
        "loadgen",
    ] {
        let mut args: Vec<&str> = cmd.split(' ').collect();
        args.push("--zzz");
        let out = fastmm(&args);
        assert_exit_2_clean(&out);
        let err = stderr(&out);
        assert!(err.contains("unknown flag '--zzz'"), "{cmd}: {err}");
        assert!(
            err.contains(&format!("usage: fastmm {cmd}")),
            "{cmd}: {err}"
        );
    }
}

#[test]
fn every_schedule_recovers_the_fault_free_product_and_writes_metrics() {
    for schedule in ["cannon", "3d", "caps"] {
        let metrics = scratch(&format!("faults_{schedule}.jsonl"));
        let out = fastmm(&[
            "faults",
            "--schedule",
            schedule,
            "--spec",
            "seed=7,crash=0.05,drop=0.02,dup=0.01,retries=8",
            "--metrics",
            metrics.to_str().unwrap(),
        ]);
        assert_eq!(out.status.code(), Some(0), "{schedule}: {}", stderr(&out));
        assert!(
            stdout(&out).contains("matches fault-free run"),
            "{schedule}: {}",
            stdout(&out)
        );
        let written = std::fs::metadata(&metrics).map(|m| m.len()).unwrap_or(0);
        assert!(written > 0, "{schedule}: empty --metrics file");
        let _ = std::fs::remove_file(&metrics);
    }
}

#[test]
fn checkpoint_recovery_survives_a_late_forced_crash() {
    let out = fastmm(&[
        "faults",
        "--schedule",
        "cannon",
        "--n",
        "16",
        "--p",
        "4",
        "--spec",
        "seed=7,crash@5:3",
        "--recovery",
        "checkpoint:1",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(
        stdout(&out).contains("matches fault-free run"),
        "{}",
        stdout(&out)
    );
}

#[test]
fn torn_checkpoint_after_a_hung_cell_resumes_to_completion() {
    let path = scratch("torn_sweep.jsonl");
    let _ = std::fs::remove_file(&path);
    let file = path.to_str().unwrap();
    let out = fastmm(&[
        "sweep",
        "run",
        "--spec",
        "smoke",
        "--out",
        file,
        "--jobs",
        "2",
        "--cell-timeout",
        "500",
        "--inject-hang",
        "1:60000",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("1 timed out"), "{}", stdout(&out));
    // A crash mid-append: tear the last checkpoint line.
    let len = std::fs::metadata(&path).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .unwrap()
        .set_len(len - 7)
        .unwrap();
    let out = fastmm(&[
        "sweep",
        "resume",
        "--spec",
        "smoke",
        "--out",
        file,
        "--jobs",
        "2",
        "--cell-timeout",
        "60000",
    ]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("0 remaining"), "{}", stdout(&out));
    let out = fastmm(&["sweep", "report", "--file", file]);
    assert_eq!(out.status.code(), Some(0), "stderr: {}", stderr(&out));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn zero_sizes_exit_2_instead_of_running() {
    for (args, message) in [
        (
            &["io", "--n", "8", "--m", "0"][..],
            "--m must be at least 1",
        ),
        (&["bounds", "--m", "0"][..], "--m must be at least 1"),
        (&["bounds", "--p", "0"][..], "--p must be at least 1"),
        (&["kernel", "--n", "0"][..], "--n must be at least 1"),
        (&["io", "--n", "0"][..], "--n must be at least 1"),
        (&["bounds", "--n", "0"][..], "--n must be at least 1"),
        (&["faults", "--n", "0"][..], "--n must be at least 1"),
        (&["faults", "--p", "0"][..], "--p must be at least 1"),
        (
            &["faults", "--schedule", "caps", "--levels", "0"][..],
            "--levels must be at least 1",
        ),
    ] {
        let out = fastmm(args);
        assert_exit_2_clean(&out);
        assert!(stderr(&out).contains(message), "{args:?}: {}", stderr(&out));
        assert!(stdout(&out).is_empty(), "{args:?}: {}", stdout(&out));
    }
}

/// Start `fastmm args` with both output streams piped, read one line of
/// `stream` (`"stdout"` or `"stderr"`), close that pipe, and return the
/// exit status with everything the other stream carried.
fn read_one_line_then_close(args: &[&str], stream: &str) -> (std::process::ExitStatus, String) {
    use std::io::{BufRead, BufReader, Read};
    use std::process::Stdio;
    let mut child = Command::new(env!("CARGO_BIN_EXE_fastmm"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fastmm");
    let out: Box<dyn Read> = Box::new(child.stdout.take().expect("stdout is piped"));
    let err: Box<dyn Read> = Box::new(child.stderr.take().expect("stderr is piped"));
    let (closed, mut other) = if stream == "stdout" {
        (out, err)
    } else {
        (err, out)
    };
    let mut line = String::new();
    BufReader::new(closed)
        .read_line(&mut line)
        .expect("read one line");
    assert!(!line.is_empty(), "{args:?}: nothing on {stream}");
    // The reader is gone: the rest of `stream` lands on a closed pipe.
    let mut rest = String::new();
    other
        .read_to_string(&mut rest)
        .expect("read the other stream");
    (child.wait().expect("wait for fastmm"), rest)
}

#[test]
fn a_closed_pipe_ends_the_process_quietly() {
    // `tables --all` keeps printing for about a second after its first
    // line, so it is still writing when the reader goes away.
    let (status, err) = read_one_line_then_close(&["tables", "--all"], "stdout");
    assert_eq!(status.code(), Some(141), "{err}");
    assert!(err.is_empty(), "a closed stdout must end quietly:\n{err}");
    // The usage error is a few lines: written in full before the pipe
    // closes (exit 2) or cut short (141), never a panic (101).
    let (status, _) = read_one_line_then_close(&["bounds", "--p", "0"], "stderr");
    assert!(matches!(status.code(), Some(2 | 141)), "{status:?}");
}

#[test]
fn poison_inputs_exit_1_with_one_panic_line() {
    for args in [
        // Strassen needs a power-of-two order; Cannon needs p to divide n.
        &["io", "--n", "12"][..],
        &["faults", "--schedule", "cannon", "--p", "5", "--n", "16"][..],
    ] {
        let out = fastmm(args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {}", stderr(&out));
        let err = stderr(&out);
        assert!(!err.contains("panicked"), "{args:?}: a backtrace:\n{err}");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(err.starts_with("panic: "), "{args:?}: {err}");
    }
}
