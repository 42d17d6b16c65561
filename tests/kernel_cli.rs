//! Contract tests for `fastmm kernel`, run against the real binary.
//!
//! The contract: a seeded run prints the deterministic report table
//! (timing lines masked here — see `normalize`), `--check` ends with the
//! matched-product line and exits 0, and every user mistake dies with
//! exit code 2 and a one-line error, never a panic.
//!
//! The masked report golden lives at `tests/golden/kernel_report.txt`;
//! regenerate after an intentional format change with:
//!
//! ```text
//! FMM_BLESS=1 cargo test --test kernel_cli
//! ```

use std::path::Path;
use std::process::{Command, Output};

fn fastmm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fastmm"))
        .args(args)
        .output()
        .expect("spawn fastmm")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
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

/// Blank out the three wall-clock-dependent values; everything else in
/// the report (tile counts, recursion shape, flops, the check verdict)
/// is a deterministic function of the seeded input.
fn normalize(report: &str) -> String {
    report
        .lines()
        .map(|l| {
            let masked = ["  wall time:", "  packing time:"]
                .iter()
                .find(|p| l.starts_with(**p))
                .map(|p| format!("{p}      <time>"));
            if let Some(m) = masked {
                m
            } else if l.starts_with("  rate:") {
                // Keep the deterministic flop count, mask the rate.
                let flops = l.split(", ").nth(1).unwrap_or("?");
                format!("  rate:           <rate> GFLOP/s (classical-equivalent, {flops}")
            } else {
                l.to_string()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

#[test]
fn seeded_strassen_report_matches_golden() {
    let out = fastmm(&[
        "kernel", "--alg", "strassen", "--n", "64", "--cutoff", "16", "--check", "--seed", "42",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let actual = normalize(&stdout(&out));
    let golden = Path::new("tests/golden/kernel_report.txt");
    if std::env::var_os("FMM_BLESS").is_some() {
        std::fs::write(golden, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(golden).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with FMM_BLESS=1 to create it",
            golden.display()
        )
    });
    assert_eq!(
        actual, expected,
        "kernel report diverged; if intentional, re-bless with FMM_BLESS=1"
    );
}

#[test]
fn check_passes_for_both_algs_and_dtypes() {
    // 37 and 200 are deliberately not powers of two: the classical path
    // must not care, the Strassen path must pad and crop. The n=256 and
    // n=200 rows are the seeded checked runs of the kernel smoke job.
    let mut rows: Vec<[&str; 5]> = Vec::new();
    for alg in ["classical", "strassen"] {
        for dtype in ["f64", "i64"] {
            rows.push([alg, "37", "8", dtype, "42"]);
        }
        rows.push([alg, "256", "64", "f64", "42"]);
    }
    rows.push(["strassen", "200", "32", "i64", "42"]);
    rows.push(["winograd", "200", "32", "f64", "42"]);
    for [alg, n, cutoff, dtype, seed] in rows {
        let out = fastmm(&[
            "kernel", "--alg", alg, "--n", n, "--cutoff", cutoff, "--dtype", dtype, "--seed", seed,
            "--check",
        ]);
        let row = format!("{alg} n={n} c{cutoff} {dtype}");
        assert!(out.status.success(), "{row}: stderr: {}", stderr(&out));
        assert!(
            stdout(&out).contains("product matches naive reference"),
            "{row}: --check must print its verdict:\n{}",
            stdout(&out)
        );
    }
}

/// The benchmark workload's shape: one level above the fused pair
/// (512 → 256, then fused 128 → 64). The unit tests check materialized
/// levels only at n ≤ 64.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug; run with --release")]
fn fast_kernels_at_n512_match_the_naive_product() {
    for alg in ["strassen", "winograd"] {
        let out = fastmm(&[
            "kernel", "--alg", alg, "--n", "512", "--cutoff", "64", "--dtype", "f64", "--seed",
            "42", "--check",
        ]);
        assert!(out.status.success(), "{alg}: stderr: {}", stderr(&out));
        assert!(
            stdout(&out).contains("product matches naive reference"),
            "{alg}: --check must print its verdict:\n{}",
            stdout(&out)
        );
    }
}

#[test]
fn threads_flag_changes_nothing_about_the_product() {
    let out = fastmm(&[
        "kernel",
        "--alg",
        "classical",
        "--n",
        "70",
        "--threads",
        "3",
        "--dtype",
        "i64",
        "--check",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("product matches naive reference"));
}

#[test]
fn unknown_alg_exits_2() {
    let out = fastmm(&["kernel", "--alg", "ks"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("unknown algorithm 'ks' (classical|strassen|winograd)"));
}

#[test]
fn zero_cutoff_exits_2() {
    let out = fastmm(&["kernel", "--cutoff", "0"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("--cutoff must be at least 1"));
}

#[test]
fn zero_threads_exits_2() {
    let out = fastmm(&["kernel", "--threads", "0"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("--threads must be at least 1"));
}

#[test]
fn unknown_dtype_exits_2() {
    let out = fastmm(&["kernel", "--dtype", "f32"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("unknown dtype 'f32' (f64|i64)"));
}

#[test]
fn non_numeric_n_exits_2() {
    let out = fastmm(&["kernel", "--n", "big"]);
    assert_exit_2_clean(&out);
    assert!(stderr(&out).contains("--n expects a number"));
}

#[test]
fn unknown_flag_exits_2_and_lists_the_valid_ones() {
    let out = fastmm(&["kernel", "--cutof", "64"]);
    assert_exit_2_clean(&out);
    let err = stderr(&out);
    assert!(err.contains("unknown flag '--cutof'"), "{err}");
    assert!(
        err.contains("--cutoff"),
        "should list the valid flags: {err}"
    );
}
