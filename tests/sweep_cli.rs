//! `fastmm sweep` end to end, against the real binary: an interrupted
//! run resumes only the remainder, every file it writes carries the
//! `fmm-sweep/v1` header and re-validates through `sweep report`, two
//! same-seed runs diff clean, and the Table I sweep reproduces the
//! committed `sweep_table1.jsonl` at tolerance 0.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fastmm(args: &[&str]) -> Output {
    let out = Command::new(env!("CARGO_BIN_EXE_fastmm"))
        .args(args)
        .output()
        .expect("spawn fastmm");
    assert!(
        out.status.success(),
        "fastmm {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

/// A fresh scratch directory for one test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fastmm_sweep_{}_{test}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path(p: &Path) -> &str {
    p.to_str().unwrap()
}

/// `sweep run --spec <spec> --out <out>` plus `extra` flags; its stdout.
fn sweep_run(spec: &str, out: &Path, extra: &[&str]) -> String {
    let mut args = vec!["sweep", "run", "--spec", spec, "--out", path(out)];
    args.extend(extra);
    String::from_utf8(fastmm(&args).stdout).unwrap()
}

#[test]
fn interrupted_smoke_run_resumes_only_the_remainder() {
    let dir = scratch("resume");
    let out = dir.join("smoke.jsonl");
    sweep_run("smoke", &out, &["--max-cells", "2", "--verbose"]);
    let resume = fastmm(&[
        "sweep",
        "resume",
        "--spec",
        "smoke",
        "--out",
        path(&out),
        "--verbose",
    ]);
    let text = String::from_utf8(resume.stdout).unwrap();
    assert!(text.contains("2 skipped"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn smoke_file_has_the_schema_header_and_sweep_report_validates_it() {
    let dir = scratch("schema");
    let out = dir.join("smoke.jsonl");
    sweep_run("smoke", &out, &[]);
    let text = std::fs::read_to_string(&out).unwrap();
    let header = text.lines().next().unwrap_or_default();
    assert!(header.contains("\"schema\":\"fmm-sweep/v1\""), "{header}");
    // `sweep report` re-parses the whole file with strict per-line,
    // per-field validation and fails on any malformed record.
    fastmm(&["sweep", "report", "--file", path(&out)]);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_same_seed_smoke_runs_diff_clean() {
    let dir = scratch("diff");
    let (a, b) = (dir.join("a.jsonl"), dir.join("b.jsonl"));
    sweep_run("smoke", &a, &[]);
    sweep_run("smoke", &b, &[]);
    let diff = fastmm(&["sweep", "diff", "--base", path(&a), "--cand", path(&b)]);
    let text = String::from_utf8(diff.stdout).unwrap();
    assert!(text.contains("no regressions"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// About 13 s in release on two cores, far longer in debug.
#[test]
#[cfg_attr(debug_assertions, ignore = "slow in debug; run with --release")]
fn table1_sweep_matches_the_committed_run_at_tolerance_0() {
    let dir = scratch("table1");
    let out = dir.join("table1.jsonl");
    sweep_run("table1", &out, &["--jobs", "2"]);
    fastmm(&[
        "sweep",
        "diff",
        "--base",
        "sweep_table1.jsonl",
        "--cand",
        path(&out),
        "--tol",
        "0",
    ]);
    let _ = std::fs::remove_dir_all(&dir);
}
