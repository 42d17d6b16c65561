//! Golden-file snapshot tests for the human-facing report surfaces.
//!
//! The sweep report over the committed `sweep_table1.jsonl` is a function
//! of the measured counters alone, so any simulator refactor that silently
//! shifts a single number changes this text and fails here. The one
//! nondeterministic line — `cell wall time (us): ...` — is stripped before
//! comparison. `fastmm tables --all` prints no wall times at all (fixed
//! grids, fixed seeds), so its stdout is compared byte for byte, and so
//! are the `io`, `bounds` and `faults` reports: seeded simulations whose
//! text is a function of their counters alone.
//!
//! To regenerate after an *intentional* change:
//!
//! ```text
//! FMM_BLESS=1 cargo test --test golden_snapshots
//! ```

use fmm_sweep::{checkpoint, report};
use std::fs;
use std::path::Path;
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

/// Drop wall-clock lines: the only part of the report that varies run to
/// run on identical inputs.
fn normalize(text: &str) -> String {
    text.lines()
        .filter(|l| !l.starts_with("cell wall time"))
        .collect::<Vec<_>>()
        .join("\n")
        + "\n"
}

fn check_golden(actual: &str, golden_path: &Path) {
    if std::env::var_os("FMM_BLESS").is_some() {
        fs::create_dir_all(golden_path.parent().unwrap()).unwrap();
        fs::write(golden_path, actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(golden_path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with FMM_BLESS=1 to create it",
            golden_path.display()
        )
    });
    assert_eq!(
        actual,
        expected,
        "report text diverged from {}; if the change is intentional, \
         regenerate with FMM_BLESS=1",
        golden_path.display()
    );
}

#[test]
fn sweep_report_on_committed_table1_matches_golden() {
    let (header, records) =
        checkpoint::load("sweep_table1.jsonl").expect("committed sweep_table1.jsonl must parse");
    let summary = report::summarize(&records);
    let text = normalize(&report::render(&header, &summary));
    check_golden(&text, Path::new("tests/golden/sweep_table1_report.txt"));
}

#[test]
fn tables_all_matches_golden() {
    let out = fastmm(&["tables", "--all"]);
    let text = String::from_utf8(out.stdout).expect("tables output is UTF-8");
    check_golden(&text, Path::new("tests/golden/tables_all.txt"));
}

/// `--metrics` on `tables` writes one block: each selected section's span
/// (named by its flag) and one `tables.section` event, which `report`
/// renders.
#[test]
fn tables_metrics_render_through_report() {
    let path = std::env::temp_dir().join(format!("fastmm_tables_{}.jsonl", std::process::id()));
    let path = path.to_str().unwrap();
    fastmm(&["tables", "--fig2", "--metrics", path]);
    let table = String::from_utf8(fastmm(&["report", path]).stdout).unwrap();
    let _ = fs::remove_file(path);
    assert!(table.contains("obs.span.total_ns{span=--fig2}"), "{table}");
    assert!(table.contains("tables.section: 1"), "{table}");
}

/// One golden per report: `fastmm <args>` stdout, byte for byte.
fn check_command_golden(args: &[&str], golden: &str) {
    let out = fastmm(args);
    let text = String::from_utf8(out.stdout).expect("report is UTF-8");
    check_golden(&text, &Path::new("tests/golden").join(golden));
}

#[test]
fn io_reports_match_golden_for_every_policy() {
    for policy in ["lru", "fifo", "opt"] {
        check_command_golden(
            &["io", "--n", "32", "--m", "96", "--policy", policy],
            &format!("io_{policy}.txt"),
        );
    }
}

#[test]
fn io_faults_report_matches_golden() {
    check_command_golden(
        &[
            "io",
            "--n",
            "16",
            "--m",
            "64",
            "--faults",
            "flush-every=512",
        ],
        "io_faults.txt",
    );
}

#[test]
fn bounds_report_matches_golden() {
    check_command_golden(
        &["bounds", "--n", "4096", "--m", "1024", "--p", "49"],
        "bounds_p49.txt",
    );
}

#[test]
fn faults_reports_match_golden_for_every_schedule() {
    for schedule in ["cannon", "3d", "caps"] {
        check_command_golden(
            &["faults", "--schedule", schedule],
            &format!("faults_{schedule}.txt"),
        );
    }
}
