//! `fastmm bench` contract tests, run against the real binary.
//!
//! The run table's *shape* is pinned by a golden snapshot: target names,
//! extras counters (deterministic seeds ⇒ exact), column headers, and
//! pass counts must not drift silently. Wall-time tokens and the
//! environment manifest are masked before comparison — they are exactly
//! the parts that legitimately vary between machines.
//!
//! To regenerate after an intentional catalog change:
//!
//! ```text
//! FMM_BLESS=1 cargo test --test bench_cli
//! ```

use std::path::PathBuf;
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

fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("fastmm_bench_{}_{name}", std::process::id()));
    p
}

/// A token is a duration iff it starts with a digit, ends with one of
/// the `format_ns` suffixes, and is otherwise digits and dots —
/// hand-rolled because the workspace has no regex dependency.
fn is_duration(tok: &str) -> bool {
    let suffix = if tok.ends_with("ns") || tok.ends_with("us") || tok.ends_with("ms") {
        2
    } else if tok.ends_with('s') {
        1
    } else {
        return false;
    };
    let num = &tok[..tok.len() - suffix];
    num.starts_with(|c: char| c.is_ascii_digit())
        && num.chars().all(|c| c.is_ascii_digit() || c == '.')
}

/// Mask the machine-dependent parts of a `bench run` table: the
/// manifest line wholesale and every duration token; collapse column
/// padding so alignment shifts don't churn the golden.
fn mask(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        if line.starts_with("manifest: ") {
            out.push_str("manifest: <masked>\n");
            continue;
        }
        let toks: Vec<&str> = line
            .split_whitespace()
            .map(|t| if is_duration(t) { "<t>" } else { t })
            .collect();
        out.push_str(&toks.join(" "));
        out.push('\n');
    }
    out
}

#[test]
fn quick_run_table_matches_golden() {
    let out = fastmm(&["bench", "run", "--profile", "quick"]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let masked = mask(&stdout(&out));
    let golden = PathBuf::from("tests/golden/bench_quick_run.txt");
    if std::env::var_os("FMM_BLESS").is_some() {
        std::fs::write(&golden, &masked).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); run with FMM_BLESS=1 to create it",
            golden.display()
        )
    });
    assert_eq!(
        masked, expected,
        "bench table shape diverged; if intentional, regenerate with FMM_BLESS=1"
    );
}

#[test]
fn same_machine_rerun_diffs_clean_and_injected_slowdown_fails() {
    let base = scratch("base.json");
    let rerun = scratch("rerun.json");
    let slow = scratch("slow.json");
    let run = |extra: &[&str], out_path: &PathBuf| {
        let mut args = vec!["bench", "run", "--profile", "quick", "--filter", "par/3d"];
        args.extend_from_slice(extra);
        args.push("--out");
        let out_str = out_path.to_str().unwrap().to_string();
        let args: Vec<String> = args
            .into_iter()
            .map(String::from)
            .chain([String::from(&out_str)])
            .collect();
        let refs: Vec<&str> = args.iter().map(String::as_str).collect();
        let out = fastmm(&refs);
        assert!(out.status.success(), "stderr: {}", stderr(&out));
    };
    run(&[], &base);
    run(&[], &rerun);
    run(&["--inject-slow", "par/3d"], &slow);

    // Loaded 1-vCPU CI boxes show 2–3× p50 noise between back-to-back
    // debug runs, so this test overrides the catalog tolerance to 4.0
    // (pass below 5×): wide enough that an honest rerun never trips it,
    // tight enough that the injected slowdown — a 25 ms sleep on a
    // sub-millisecond target, > 25× — always does.
    let tol = ["--tol", "4.0"];

    // Same machine, same seeds, back to back: within tolerance.
    let clean = fastmm(&[
        "bench",
        "diff",
        "--base",
        base.to_str().unwrap(),
        "--cand",
        rerun.to_str().unwrap(),
        tol[0],
        tol[1],
    ]);
    assert!(
        clean.status.success(),
        "same-machine rerun regressed: {}",
        stdout(&clean)
    );
    assert!(stdout(&clean).contains("bench diff: ok"));

    // A 25 ms injected sleep per pass dwarfs even the widened tolerance.
    let regressed = fastmm(&[
        "bench",
        "diff",
        "--base",
        base.to_str().unwrap(),
        "--cand",
        slow.to_str().unwrap(),
        tol[0],
        tol[1],
    ]);
    assert_eq!(regressed.status.code(), Some(1));
    assert!(stdout(&regressed).contains("TIMING regress"));

    // ...but --warn-timing downgrades pure timing failures to exit 0.
    let warned = fastmm(&[
        "bench",
        "diff",
        "--base",
        base.to_str().unwrap(),
        "--cand",
        slow.to_str().unwrap(),
        tol[0],
        tol[1],
        "--warn-timing",
    ]);
    assert!(warned.status.success(), "warn-timing must not gate timing");
    assert!(stdout(&warned).contains("TIMING regress"));

    for p in [&base, &rerun, &slow] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn run_documents_round_trip_through_files() {
    let path = scratch("roundtrip.json");
    let out = fastmm(&[
        "bench",
        "run",
        "--profile",
        "quick",
        "--filter",
        "par/3d",
        "--out",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    assert!(stdout(&out).contains("bench document written to"));
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.starts_with("{\"schema\":\"fmm-bench/v1\""));
    // A written document diffs clean against itself.
    let self_diff = fastmm(&[
        "bench",
        "diff",
        "--base",
        path.to_str().unwrap(),
        "--cand",
        path.to_str().unwrap(),
    ]);
    assert!(self_diff.status.success());
    let _ = std::fs::remove_file(&path);
}

#[test]
fn bench_error_paths_exit_2() {
    let bad_profile = fastmm(&["bench", "run", "--profile", "warp"]);
    assert_eq!(bad_profile.status.code(), Some(2));
    assert!(stderr(&bad_profile).contains("quick|standard|full"));

    let no_match = fastmm(&["bench", "run", "--filter", "no/such/target"]);
    assert_eq!(no_match.status.code(), Some(2));
    assert!(stderr(&no_match).contains("no targets matched"));

    let missing_file = fastmm(&[
        "bench",
        "diff",
        "--base",
        "/nonexistent.json",
        "--cand",
        "/n.json",
    ]);
    assert_eq!(missing_file.status.code(), Some(2));
    assert!(stderr(&missing_file).contains("cannot read"));

    let bad_verb = fastmm(&["bench", "frobnicate"]);
    assert_eq!(bad_verb.status.code(), Some(2));
    assert!(stderr(&bad_verb).contains("unknown bench verb"));

    // A non-bench document must be rejected, not compared as garbage.
    let not_bench = scratch("not_bench.json");
    std::fs::write(&not_bench, "{\"schema\":\"fmm-sweep-bench/v1\"}\n").unwrap();
    let wrong_schema = fastmm(&[
        "bench",
        "diff",
        "--base",
        not_bench.to_str().unwrap(),
        "--cand",
        not_bench.to_str().unwrap(),
    ]);
    assert_eq!(wrong_schema.status.code(), Some(2));
    assert!(stderr(&wrong_schema).contains("unsupported schema"));
    let _ = std::fs::remove_file(&not_bench);
}

#[test]
fn bench_list_names_every_catalog_target() {
    let out = fastmm(&["bench", "list"]);
    assert!(out.status.success());
    let text = stdout(&out);
    for name in [
        "memsim/lru/n32_m1024",
        "memsim/opt/n32_m1024",
        "sweep/smoke_cells",
        "par/cannon/n16_p4",
        "serve/loadgen_e2e",
    ] {
        assert!(text.contains(name), "bench list missing {name}:\n{text}");
    }
    assert!(text.contains("from profile standard"));
}

#[test]
fn metrics_flag_writes_a_file_report_can_render() {
    let metrics = scratch("metrics.jsonl");
    let rendered = scratch("report_metrics.jsonl");
    let out = fastmm(&[
        "bench",
        "run",
        "--profile",
        "quick",
        "--filter",
        "memsim/lru/n32",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr(&out));
    let written = std::fs::metadata(&metrics).map(|m| m.len()).unwrap_or(0);
    assert!(written > 0, "bench run --metrics left an empty file");
    // `report` takes --metrics like every other command.
    let report = fastmm(&[
        "report",
        metrics.to_str().unwrap(),
        "--metrics",
        rendered.to_str().unwrap(),
    ]);
    assert!(report.status.success(), "stderr: {}", stderr(&report));
    for p in [&metrics, &rendered] {
        let _ = std::fs::remove_file(p);
    }
}
