//! The worker pool: expand a spec, distribute cells over std scoped
//! threads, isolate per-cell panics, and stream each finished cell to a
//! sink (normally an append-only [`fmm_obs::jsonl`] checkpoint).
//!
//! Determinism contract: with `jobs = 1` results arrive in cell-id order;
//! with more workers the *set* of records is identical and only the file
//! order (and wall times) may differ. Per-cell workload seeds derive from
//! the root seed and the cell's stable id, never from scheduling.

use crate::cell::{cell_seed, run_cell};
use crate::checkpoint::{self, cell_line, header_line, CellRecord, CellStatus};
use crate::spec::{Cell, SweepSpec};
use fmm_faults::cancel::{self, Stopped};
use fmm_obs::jsonl::Log;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Root seed; per-cell seeds derive deterministically from it.
    pub seed: u64,
    /// Worker threads (0 = `available_parallelism`).
    pub jobs: usize,
    /// Execute at most this many pending cells, then stop (simulates an
    /// interrupt; used by tests, CI, and incremental runs).
    pub max_cells: Option<usize>,
    /// Print one progress line per finished cell to stderr.
    pub verbose: bool,
    /// Per-cell wall-clock budget in milliseconds. The cell runs under a
    /// scoped [`fmm_faults::CancelToken`] with this deadline; the
    /// instrumented simulators poll it at loop granularity, so an
    /// over-budget cell unwinds *on the worker thread itself* and is
    /// recorded as [`CellStatus::TimedOut`] — no detached thread, nothing
    /// outlives the sweep. (Cancellation is cooperative: code that never
    /// reaches a poll point — e.g. a pathological pebbling search — can
    /// still overshoot the budget until its next polled loop.)
    pub cell_timeout_ms: Option<u64>,
    /// Re-run a cell that errored or timed out up to this many extra
    /// times, with deterministic backoff between attempts.
    pub cell_retries: u32,
    /// Test hook: make cell `.0` sleep `.1` milliseconds before running,
    /// simulating a hung cell without needing a pathological input.
    pub inject_hang: Option<(usize, u64)>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            seed: fmm_memsim::seq::DEFAULT_WORKLOAD_SEED,
            jobs: 0,
            max_cells: None,
            verbose: false,
            cell_timeout_ms: None,
            cell_retries: 0,
            inject_hang: None,
        }
    }
}

impl RunConfig {
    /// The effective worker count.
    pub(crate) fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// What a run did.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Cells executed this invocation.
    pub executed: usize,
    /// Of those, how many succeeded.
    pub ok: usize,
    /// Of those, how many errored or panicked.
    pub errors: usize,
    /// Cells skipped because the checkpoint already had them.
    pub skipped: usize,
    /// Cells left pending (interrupt via `max_cells`).
    pub remaining: usize,
    /// Cells that exceeded the per-cell wall-clock budget.
    pub timeouts: usize,
    /// Extra attempts spent on retrying failed or timed-out cells.
    pub retried: usize,
    /// Cells whose result never arrived because the worker pool drained
    /// early (a worker died outside the per-cell isolation).
    pub lost: usize,
}

/// Execute `cells` on the worker pool, invoking `sink` for every finished
/// record from the coordinating thread (records stream in completion
/// order). This is the in-memory core; [`run_to_file`]/[`resume_file`]
/// wrap it with checkpointing.
pub fn execute<F>(cells: &[Cell], cfg: &RunConfig, mut sink: F) -> RunStats
where
    F: FnMut(&CellRecord),
{
    let limit = cfg.max_cells.unwrap_or(cells.len()).min(cells.len());
    let todo = &cells[..limit];
    let mut stats = RunStats {
        remaining: cells.len() - limit,
        ..RunStats::default()
    };
    if todo.is_empty() {
        return stats;
    }
    let jobs = cfg.effective_jobs().min(todo.len());
    // Workers claim cells by bumping a shared cursor over `todo`.
    let next = AtomicUsize::new(0);
    let (res_tx, res_rx) = mpsc::sync_channel::<(CellRecord, u32)>(todo.len());
    std::thread::scope(|s| {
        let mut handles = Vec::with_capacity(jobs);
        for _ in 0..jobs {
            let next = &next;
            let res_tx = res_tx.clone();
            handles.push(s.spawn(move || {
                while let Some(cell) = todo.get(next.fetch_add(1, Ordering::Relaxed)) {
                    let seed = cell_seed(cfg.seed, cell);
                    let start = Instant::now();
                    let mut status = run_one(cell, seed, cfg);
                    let mut attempts = 0u32;
                    while attempts < cfg.cell_retries && !matches!(status, CellStatus::Ok(_)) {
                        attempts += 1;
                        std::thread::sleep(Duration::from_micros(fmm_faults::backoff_micros(
                            attempts,
                        )));
                        status = run_one(cell, seed, cfg);
                    }
                    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
                    let rec = CellRecord {
                        cell: cell.clone(),
                        seed,
                        status,
                        wall_ms,
                    };
                    if res_tx.send((rec, attempts)).is_err() {
                        return;
                    }
                }
            }));
        }
        // The coordinator's own sender must go: once every worker exits,
        // the channel disconnects and the drain loop below observes it
        // instead of blocking forever.
        drop(res_tx);
        // Stream results as they complete: the checkpoint grows while
        // workers are still busy, which is what makes resume-after-crash
        // lose at most the in-flight cells. A disconnect before all
        // results arrive means a worker died outside the per-cell
        // isolation — drain what exists and report the shortfall rather
        // than tearing the sweep down.
        for done in 0..todo.len() {
            let Ok((rec, attempts)) = res_rx.recv() else {
                stats.lost = todo.len() - done;
                eprintln!(
                    "sweep: worker pool drained early; {} cell(s) unaccounted for",
                    stats.lost
                );
                break;
            };
            match &rec.status {
                CellStatus::Ok(_) => stats.ok += 1,
                CellStatus::Error(_) => stats.errors += 1,
                CellStatus::TimedOut => stats.timeouts += 1,
            }
            stats.executed += 1;
            stats.retried += attempts as usize;
            publish_cell_metrics(&rec);
            if cfg.verbose {
                eprintln!(
                    "[{}/{}] cell {} {} ({:.1} ms)",
                    done + 1,
                    todo.len(),
                    rec.cell.key(),
                    match &rec.status {
                        CellStatus::Ok(m) => format!("io={}", m.io),
                        CellStatus::Error(e) => format!("ERROR: {e}"),
                        CellStatus::TimedOut => "TIMED OUT".to_string(),
                    },
                    rec.wall_ms
                );
            }
            sink(&rec);
        }
        // Join explicitly so a worker panic is observed here (and folded
        // into `lost`) instead of detonating the scope teardown.
        for h in handles {
            if h.join().is_err() {
                eprintln!("sweep: a worker thread panicked outside cell isolation");
            }
        }
    });
    stats
}

/// Run one cell under [`cancel::isolate`] and, when configured, a
/// wall-clock budget enforced by a scoped [`fmm_faults::CancelToken`].
/// The cell runs on the calling worker thread; deadline expiry cancels
/// it cooperatively at the simulators' poll points (a cancellation is
/// [`CellStatus::TimedOut`], any other panic an `Error("panic: …")`).
/// Timed-out work stops instead of leaking a thread.
fn run_one(cell: &Cell, seed: u64, cfg: &RunConfig) -> CellStatus {
    let hang_ms = cfg
        .inject_hang
        .and_then(|(id, ms)| (id == cell.id).then_some(ms));
    let token = match cfg.cell_timeout_ms {
        Some(budget) => fmm_faults::CancelToken::with_deadline(Duration::from_millis(budget)),
        None => fmm_faults::CancelToken::new(),
    };
    let _scope = cancel::enter(&token);
    let outcome = cancel::isolate(|| {
        if let Some(ms) = hang_ms {
            // The simulated hang observes the token like real work does.
            token.cancellable_sleep(Duration::from_millis(ms));
        }
        run_cell(cell, seed)
    });
    match outcome {
        Ok(Ok(m)) => CellStatus::Ok(m),
        Ok(Err(e)) => CellStatus::Error(e),
        Err(Stopped::Cancelled(_)) => CellStatus::TimedOut,
        Err(panic) => CellStatus::Error(panic.to_string()),
    }
}

fn publish_cell_metrics(rec: &CellRecord) {
    if !fmm_obs::enabled() {
        return;
    }
    match &rec.status {
        CellStatus::Ok(m) => {
            fmm_obs::add("sweep.cells.ok", &[], 1);
            fmm_obs::observe("sweep.cell.wall_us", &[], (rec.wall_ms * 1e3) as u64);
            fmm_obs::observe("sweep.cell.io", &[], m.io);
        }
        CellStatus::Error(_) => fmm_obs::add("sweep.cells.error", &[], 1),
        CellStatus::TimedOut => fmm_obs::add("sweep.cells.timeout", &[], 1),
    }
}

/// Run a spec in memory and return the records sorted by cell id.
/// This is the entry point the `tables` binary drives its loops through.
pub fn run_collect(spec: &SweepSpec, cfg: &RunConfig) -> Vec<CellRecord> {
    let cells = spec.expand();
    let mut records = Vec::with_capacity(cells.len());
    execute(&cells, cfg, |r| records.push(r.clone()));
    records.sort_by_key(|r| r.cell.id);
    records
}

/// Start a fresh checkpointed run: write the header, then append one
/// line per finished cell. Fails if `path` already exists — `resume` is
/// the verb for continuing.
pub fn run_to_file(spec: &SweepSpec, cfg: &RunConfig, path: &str) -> Result<RunStats, String> {
    if std::path::Path::new(path).exists() {
        return Err(format!(
            "'{path}' already exists; use `sweep resume` to continue it"
        ));
    }
    let cells = spec.expand();
    let log = Log::create(path, &header_line(spec, cfg.seed, cells.len()))?;
    append_cells(&cells, spec, cfg, log, path)
}

/// Resume a checkpointed run: validate the header against `spec`, collect
/// the ids of cells already done (ok **or** error — errors are
/// deterministic, re-running them cannot help; timed-out cells are *not*
/// done and re-run), and execute only the rest, appending to the same
/// file with no second header.
///
/// A torn trailing line (crash mid-append) is tolerated: the file is
/// truncated back to its last committed record, a warning names the
/// damage, and the torn cell re-runs like any other pending cell.
pub fn resume_file(spec: &SweepSpec, cfg: &RunConfig, path: &str) -> Result<RunStats, String> {
    // Validate the header before the reopen repairs anything, so a
    // mismatched resume leaves the file as it found it.
    let check = |line: &str| {
        let header = checkpoint::parse_header(line)?;
        if header.spec_hash != spec.hash() {
            return Err(format!(
                "checkpoint spec hash {} does not match spec '{}' ({})",
                header.spec_hash,
                spec.name,
                spec.hash()
            ));
        }
        if cfg.seed != header.seed {
            return Err(format!(
                "checkpoint was started with seed {}, got --seed {}",
                header.seed, cfg.seed
            ));
        }
        Ok(header)
    };
    let (contents, log) = Log::reopen(path, check, checkpoint::parse_record)?;
    if let Some(t) = &contents.torn {
        eprintln!(
            "sweep: '{path}' line {}: torn trailing record ({}); truncated, re-running \
             that cell",
            t.line, t.reason
        );
    }
    // Duplicate ids are possible (a timed-out cell re-run by an earlier
    // resume); only the latest record per id counts.
    let done: BTreeSet<usize> = checkpoint::latest_by_id(&contents.records)
        .iter()
        .filter(|r| !matches!(r.status, CellStatus::TimedOut))
        .map(|r| r.cell.id)
        .collect();
    let cells = spec.expand();
    let pending: Vec<Cell> = cells
        .iter()
        .filter(|c| !done.contains(&c.id))
        .cloned()
        .collect();
    let mut stats = append_cells(&pending, spec, cfg, log, path)?;
    stats.skipped = cells.len() - pending.len();
    Ok(stats)
}

/// Execute `cells`, appending each record to `log` as it finishes. The
/// first write error stops the appends (the workers still drain) and is
/// returned.
fn append_cells(
    cells: &[Cell],
    spec: &SweepSpec,
    cfg: &RunConfig,
    mut log: Log,
    path: &str,
) -> Result<RunStats, String> {
    let hash = spec.hash();
    let mut io_err: Option<std::io::Error> = None;
    let stats = execute(cells, cfg, |rec| {
        if io_err.is_none() {
            io_err = log.append(cell_line(&hash, rec)).err();
        }
    });
    // A finished run is synced whole, whatever the cadence left over.
    match io_err.or_else(|| log.sync().err()) {
        Some(e) => Err(format!("write '{path}': {e}")),
        None => Ok(stats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SweepSpec;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("fmm-sweep-engine-tests");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{name}-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p.to_string_lossy().into_owned()
    }

    #[test]
    fn run_collect_is_complete_and_deterministic() {
        let spec = SweepSpec::builtin("smoke").unwrap();
        let cfg = RunConfig {
            seed: 9,
            jobs: 3,
            ..RunConfig::default()
        };
        let a = run_collect(&spec, &cfg);
        let b = run_collect(&spec, &cfg);
        assert_eq!(a.len(), spec.expand().len());
        // Records (wall time aside) are identical across runs and jobs.
        let strip = |v: &[CellRecord]| {
            v.iter()
                .map(|r| (r.cell.clone(), r.seed, r.status.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(strip(&a), strip(&b));
        let single = run_collect(
            &spec,
            &RunConfig {
                seed: 9,
                jobs: 1,
                ..RunConfig::default()
            },
        );
        assert_eq!(strip(&a), strip(&single));
    }

    #[test]
    fn checkpoint_resume_executes_zero_when_complete() {
        let spec = SweepSpec::builtin("smoke").unwrap();
        let path = tmp("complete");
        let cfg = RunConfig {
            seed: 5,
            jobs: 2,
            ..RunConfig::default()
        };
        let s = run_to_file(&spec, &cfg, &path).unwrap();
        assert_eq!(s.executed, spec.expand().len());
        let r = resume_file(&spec, &cfg, &path).unwrap();
        assert_eq!(r.executed, 0, "resume after completion re-runs nothing");
        assert_eq!(r.skipped, spec.expand().len());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn interrupted_run_resumes_without_duplicates() {
        let spec = SweepSpec::builtin("smoke").unwrap();
        let total = spec.expand().len();
        let path = tmp("interrupted");
        let cfg_k = RunConfig {
            seed: 5,
            jobs: 1,
            max_cells: Some(2),
            ..RunConfig::default()
        };
        let s = run_to_file(&spec, &cfg_k, &path).unwrap();
        assert_eq!(s.executed, 2);
        assert_eq!(s.remaining, total - 2);
        let cfg = RunConfig {
            seed: 5,
            jobs: 1,
            ..RunConfig::default()
        };
        let r = resume_file(&spec, &cfg, &path).unwrap();
        assert_eq!(r.skipped, 2);
        assert_eq!(r.executed, total - 2);
        let (_, recs) = crate::checkpoint::load(&path).unwrap();
        let mut ids: Vec<usize> = recs.iter().map(|r| r.cell.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..total).collect::<Vec<_>>());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_wrong_spec_or_seed() {
        let spec = SweepSpec::builtin("smoke").unwrap();
        let path = tmp("reject");
        let cfg = RunConfig {
            seed: 5,
            jobs: 1,
            max_cells: Some(1),
            ..RunConfig::default()
        };
        run_to_file(&spec, &cfg, &path).unwrap();
        let other = SweepSpec::builtin("x1").unwrap();
        assert!(resume_file(&other, &cfg, &path).is_err());
        let wrong_seed = RunConfig {
            seed: 6,
            ..cfg.clone()
        };
        assert!(resume_file(&spec, &wrong_seed, &path).is_err());
        // And a fresh run refuses to clobber the checkpoint.
        assert!(run_to_file(&spec, &cfg, &path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn hung_cell_times_out_and_sweep_continues() {
        let spec = SweepSpec::builtin("smoke").unwrap();
        let cells = spec.expand();
        let cfg = RunConfig {
            seed: 5,
            jobs: 2,
            cell_timeout_ms: Some(100),
            inject_hang: Some((cells[0].id, 10_000)),
            ..RunConfig::default()
        };
        let mut records = Vec::new();
        let stats = execute(&cells, &cfg, |r| records.push(r.clone()));
        assert_eq!(stats.executed, cells.len(), "sweep must run to completion");
        assert_eq!(stats.timeouts, 1);
        assert_eq!(stats.ok, cells.len() - 1);
        let timed: Vec<_> = records
            .iter()
            .filter(|r| matches!(r.status, CellStatus::TimedOut))
            .collect();
        assert_eq!(timed.len(), 1);
        assert_eq!(timed[0].cell.id, cells[0].id);
    }

    /// Live threads whose name marks them as sweep-cell workers. The old
    /// timeout scheme detached a named `sweep-cell-<id>` thread per timed
    /// out cell; the cooperative scheme must leave none behind.
    fn leaked_cell_threads() -> usize {
        #[cfg(target_os = "linux")]
        {
            std::fs::read_dir("/proc/self/task")
                .map(|dir| {
                    dir.flatten()
                        .filter(|t| {
                            std::fs::read_to_string(t.path().join("comm"))
                                .map(|c| c.trim_end().starts_with("sweep-cell"))
                                .unwrap_or(false)
                        })
                        .count()
                })
                .unwrap_or(0)
        }
        #[cfg(not(target_os = "linux"))]
        {
            0
        }
    }

    #[test]
    fn timed_out_cells_leak_no_threads_and_stop_promptly() {
        let spec = SweepSpec::builtin("smoke").unwrap();
        let cells = spec.expand();
        // A two-minute hang against a 100 ms budget: under the detached-
        // thread scheme this left a sleeping thread behind for the full
        // two minutes; under cooperative cancellation the hang itself is
        // cancelled, so the sweep returns fast and leaks nothing.
        let cfg = RunConfig {
            seed: 5,
            jobs: 2,
            cell_timeout_ms: Some(100),
            inject_hang: Some((cells[0].id, 120_000)),
            ..RunConfig::default()
        };
        let start = std::time::Instant::now();
        let stats = execute(&cells, &cfg, |_| {});
        assert_eq!(stats.timeouts, 1);
        assert_eq!(stats.ok, cells.len() - 1);
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "hung cell must be cancelled at its deadline, not awaited"
        );
        assert_eq!(
            leaked_cell_threads(),
            0,
            "no cell thread may outlive the sweep"
        );
    }

    #[test]
    fn timed_out_cells_rerun_on_resume() {
        let spec = SweepSpec::builtin("smoke").unwrap();
        let total = spec.expand().len();
        let path = tmp("timeout-resume");
        let hang_id = spec.expand()[1].id;
        let cfg_hang = RunConfig {
            seed: 5,
            jobs: 1,
            cell_timeout_ms: Some(100),
            inject_hang: Some((hang_id, 10_000)),
            ..RunConfig::default()
        };
        let s = run_to_file(&spec, &cfg_hang, &path).unwrap();
        assert_eq!(s.timeouts, 1);
        // Resume without the hang: only the timed-out cell re-runs.
        let cfg = RunConfig {
            seed: 5,
            jobs: 1,
            ..RunConfig::default()
        };
        let r = resume_file(&spec, &cfg, &path).unwrap();
        assert_eq!(r.executed, 1, "only the timed-out cell is pending");
        assert_eq!(r.skipped, total - 1);
        assert_eq!(r.ok, 1);
        // The file now has a duplicate id; the latest record wins and is Ok.
        let (_, recs) = crate::checkpoint::load(&path).unwrap();
        assert_eq!(recs.len(), total + 1);
        let latest = crate::checkpoint::latest_by_id(&recs);
        assert_eq!(latest.len(), total);
        assert!(latest.iter().all(|r| matches!(r.status, CellStatus::Ok(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_repaired_on_resume() {
        use std::io::Write as _;
        let spec = SweepSpec::builtin("smoke").unwrap();
        let total = spec.expand().len();
        let path = tmp("torn-tail");
        let cfg = RunConfig {
            seed: 5,
            jobs: 1,
            max_cells: Some(3),
            ..RunConfig::default()
        };
        run_to_file(&spec, &cfg, &path).unwrap();
        // Kill a write mid-line: chop the last record's line at an
        // arbitrary byte, leaving no trailing newline.
        let text = std::fs::read_to_string(&path).unwrap();
        let last_start = text.trim_end().rfind('\n').unwrap() + 1;
        let cut = last_start + (text.len() - last_start) / 2;
        std::fs::write(&path, &text[..cut]).unwrap();
        // Strict load refuses the damage; resume repairs it and re-runs
        // the torn cell along with the rest.
        assert!(crate::checkpoint::load(&path).is_err());
        let cfg_all = RunConfig {
            seed: 5,
            jobs: 1,
            ..RunConfig::default()
        };
        let r = resume_file(&spec, &cfg_all, &path).unwrap();
        assert_eq!(r.skipped, 2, "two intact records survive");
        assert_eq!(r.executed, total - 2);
        // The repaired file is strictly valid and complete.
        let (_, recs) = crate::checkpoint::load(&path).unwrap();
        let mut ids: Vec<usize> = recs.iter().map(|r| r.cell.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..total).collect::<Vec<_>>());
        // And garbage in the middle of the file is still fatal.
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines[1] = "{\"type\":\"cell\",\"spe";
        let mut f = std::fs::File::create(&path).unwrap();
        for l in &lines {
            writeln!(f, "{l}").unwrap();
        }
        drop(f);
        assert!(resume_file(&spec, &cfg_all, &path).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_record_missing_its_newline_re_runs_and_the_resumed_file_loads() {
        let spec = SweepSpec::builtin("smoke").unwrap();
        let total = spec.expand().len();
        let path = tmp("no-newline");
        let cfg = RunConfig {
            seed: 5,
            jobs: 1,
            max_cells: Some(3),
            ..RunConfig::default()
        };
        run_to_file(&spec, &cfg, &path).unwrap();
        // A crash between a record's bytes and its newline: the last
        // line is whole JSON, but it is not committed.
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.strip_suffix('\n').unwrap()).unwrap();
        let cfg_all = RunConfig {
            seed: 5,
            jobs: 1,
            ..RunConfig::default()
        };
        let r = resume_file(&spec, &cfg_all, &path).unwrap();
        // The next cell must start on a fresh line, not be glued onto
        // the uncommitted one.
        let (_, recs) = crate::checkpoint::load(&path).unwrap();
        let mut ids: Vec<usize> = recs.iter().map(|r| r.cell.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..total).collect::<Vec<_>>());
        assert_eq!(r.skipped, 2, "the newline-less record is not committed");
        assert_eq!(r.executed, total - 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn failing_cells_are_retried_with_bounded_attempts() {
        use crate::spec::{AlgKind, Cell, PolicyKind, RunMode};
        // This cell panics deterministically (grid side 3 does not divide
        // n = 8), so every retry fails too: the engine must spend exactly
        // `cell_retries` extra attempts and then record the error.
        let cells = vec![Cell {
            id: 0,
            alg: AlgKind::Classical,
            n: 8,
            m: 48,
            p: 9,
            policy: PolicyKind::Lru,
            mode: RunMode::Cache,
            rep: 0,
        }];
        let mut records = Vec::new();
        let stats = execute(
            &cells,
            &RunConfig {
                jobs: 1,
                cell_retries: 2,
                ..RunConfig::default()
            },
            |r| records.push(r.clone()),
        );
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.retried, 2);
        assert!(matches!(records[0].status, CellStatus::Error(_)));
    }

    #[test]
    fn panicking_cells_are_isolated() {
        // A parallel cell whose grid side does not divide n panics inside
        // the Cannon simulator ("p must divide n"); the spec's expansion
        // filter would normally drop it, but the engine must survive a
        // panic regardless and record it as an error, then keep going.
        use crate::spec::{AlgKind, Cell, PolicyKind, RunMode};
        let cells = vec![
            Cell {
                id: 0,
                alg: AlgKind::Classical,
                n: 8,
                m: 48,
                p: 9, // side 3 does not divide n = 8 → simulator panics
                policy: PolicyKind::Lru,
                mode: RunMode::Cache,
                rep: 0,
            },
            Cell {
                id: 1,
                alg: AlgKind::Classical,
                n: 8,
                m: 48,
                p: 1,
                policy: PolicyKind::Lru,
                mode: RunMode::Cache,
                rep: 0,
            },
        ];
        let mut records = Vec::new();
        let stats = execute(
            &cells,
            &RunConfig {
                jobs: 1,
                ..RunConfig::default()
            },
            |r| records.push(r.clone()),
        );
        assert_eq!(stats.executed, 2);
        assert_eq!(stats.errors, 1);
        assert_eq!(stats.ok, 1);
        assert!(matches!(records[0].status, CellStatus::Error(ref e) if e.contains("panic")));
        assert!(matches!(records[1].status, CellStatus::Ok(_)));
    }
}
