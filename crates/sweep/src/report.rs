//! The aggregate stage: fold a checkpoint's cell records into fitted
//! exponents, bound-ratio extremes, parallel crossover analysis, and
//! wall-time percentiles; render them as text and as `BENCH_sweep.json`.

use crate::checkpoint::{CellRecord, CellStatus, Header};
use crate::fit::{fit_power_law, PowerFit};
use crate::spec::{AlgKind, Cell, PolicyKind, RunMode};
use fmm_core::bounds;
use fmm_obs::Histogram;
use std::collections::BTreeMap;

/// One fitted I/O-vs-n exponent for a (algorithm, M) family of
/// sequential cache cells.
#[derive(Clone, Debug)]
pub struct ExponentRow {
    /// Algorithm of the family.
    pub alg: AlgKind,
    /// Fast-memory size shared by the family.
    pub m: usize,
    /// The fit over `(n, measured io)`.
    pub fit: PowerFit,
    /// The exponent the paper's model predicts for this family (`ω`).
    pub expected: f64,
}

/// One parallel family: fixed (alg, n, M), bounds evaluated across its P
/// axis to locate the memory-dependent / memory-independent crossover.
#[derive(Clone, Debug)]
pub struct ParallelRow {
    /// Algorithm of the family.
    pub alg: AlgKind,
    /// Problem side.
    pub n: usize,
    /// Per-processor memory.
    pub m: usize,
    /// Processor count.
    pub p: usize,
    /// Max per-processor words measured.
    pub words: u64,
    /// The binding Table I bound.
    pub bound: f64,
    /// The crossover memory size `M* = n²/P^(2/ω)`; the memory-dependent
    /// bound binds for `M < M*`, the memory-independent one above.
    pub crossover_m: f64,
    /// Whether this cell sits in the memory-dependent regime (`m < M*`).
    pub memory_dependent: bool,
}

/// Everything the report stage derives from one result file.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    /// Cells that produced a measurement.
    pub ok: usize,
    /// Cells that errored (message kept per cell in the checkpoint).
    pub errors: usize,
    /// Cells whose latest record is a timeout (still pending a re-run).
    pub timeouts: usize,
    /// Fitted exponents per sequential (alg, M) family.
    pub exponents: Vec<ExponentRow>,
    /// Smallest measured/bound ratio with its cell key.
    pub ratio_min: Option<(String, f64)>,
    /// Largest measured/bound ratio with its cell key.
    pub ratio_max: Option<(String, f64)>,
    /// Parallel cells annotated with their bound regime.
    pub parallel: Vec<ParallelRow>,
    /// Pebbling cells: (key, io, recomputes) for the recompute ablation.
    pub pebble: Vec<(String, u64, u64)>,
    /// Wall-time distribution in microseconds.
    pub wall_us: Histogram,
    /// Measured-I/O distribution (sequential + pebbling cells).
    pub io: Histogram,
}

fn is_seq_fit_cell(cell: &Cell) -> bool {
    // Only deep-memory-bound cells (n ≥ 4√M) enter the exponent fit:
    // closer to cache residency the measured I/O curve is still bending
    // toward its asymptotic slope and would bias the exponent upward.
    cell.mode == RunMode::Cache
        && cell.p == 1
        && cell.policy == PolicyKind::Lru
        && cell.rep == 0
        && cell.n * cell.n >= 16 * cell.m
}

/// Fold records into a [`Summary`]. Duplicate cell ids (a resume re-ran a
/// timed-out cell) collapse to the latest record first.
pub fn summarize(records: &[CellRecord]) -> Summary {
    let mut s = Summary::default();
    let records = crate::checkpoint::latest_by_id(records);
    // (alg, m) -> sorted-by-n (n, io) samples for exponent fitting.
    let mut families: BTreeMap<(AlgKind, usize), Vec<(f64, f64)>> = BTreeMap::new();
    for rec in &records {
        let m = match &rec.status {
            CellStatus::Ok(m) => m,
            CellStatus::Error(_) => {
                s.errors += 1;
                continue;
            }
            CellStatus::TimedOut => {
                s.timeouts += 1;
                continue;
            }
        };
        s.ok += 1;
        s.wall_us.observe((rec.wall_ms * 1e3) as u64);
        let cell = &rec.cell;
        if m.ratio.is_finite() {
            let key = cell.key();
            if s.ratio_min.as_ref().is_none_or(|(_, r)| m.ratio < *r) {
                s.ratio_min = Some((key.clone(), m.ratio));
            }
            if s.ratio_max.as_ref().is_none_or(|(_, r)| m.ratio > *r) {
                s.ratio_max = Some((key, m.ratio));
            }
        }
        match cell.mode {
            RunMode::Cache if cell.p > 1 => {
                let crossover = bounds::parallel_crossover_m(cell.n, cell.p, cell.alg.omega());
                s.parallel.push(ParallelRow {
                    alg: cell.alg,
                    n: cell.n,
                    m: cell.m,
                    p: cell.p,
                    words: m.words,
                    bound: m.bound,
                    crossover_m: crossover,
                    memory_dependent: (cell.m as f64) < crossover,
                });
            }
            RunMode::Cache => {
                s.io.observe(m.io);
                if is_seq_fit_cell(cell) {
                    families
                        .entry((cell.alg, cell.m))
                        .or_default()
                        .push((cell.n as f64, m.io as f64));
                }
            }
            RunMode::PebbleSr | RunMode::PebbleRc => {
                s.io.observe(m.io);
                s.pebble.push((cell.key(), m.io, m.recomputes));
            }
        }
    }
    for ((alg, m), pts) in families {
        if let Some(fit) = fit_power_law(&pts) {
            s.exponents.push(ExponentRow {
                alg,
                m,
                fit,
                expected: alg.omega(),
            });
        }
    }
    s
}

/// Render the summary as the human-facing `sweep report` text.
pub fn render(header: &Header, s: &Summary) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "sweep '{}' (hash {}, seed {}): {} ok, {} errors of {} cells",
        header.spec, header.spec_hash, header.seed, s.ok, s.errors, header.cells
    );
    if s.timeouts > 0 {
        let _ = writeln!(
            out,
            "  {} cell(s) timed out — still pending; `sweep resume` re-runs them",
            s.timeouts
        );
    }
    if !s.exponents.is_empty() {
        let _ = writeln!(out, "\nfitted I/O exponents (io ~ n^e at fixed M, LRU):");
        let _ = writeln!(
            out,
            "  {:<10} {:>6} {:>8} {:>8} {:>7} {:>6}",
            "alg", "M", "fitted", "model", "delta", "r^2"
        );
        for row in &s.exponents {
            let _ = writeln!(
                out,
                "  {:<10} {:>6} {:>8.4} {:>8.4} {:>+7.3} {:>6.3}",
                row.alg.as_str(),
                row.m,
                row.fit.exponent,
                row.expected,
                row.fit.exponent - row.expected,
                row.fit.r2
            );
        }
    }
    if let (Some((kmin, rmin)), Some((kmax, rmax))) = (&s.ratio_min, &s.ratio_max) {
        let _ = writeln!(out, "\nmeasured/bound ratio:");
        let _ = writeln!(out, "  min {rmin:.4} at {kmin}");
        let _ = writeln!(out, "  max {rmax:.4} at {kmax}");
    }
    if !s.parallel.is_empty() {
        let _ = writeln!(out, "\nparallel cells (bound regime via M* = n^2/P^(2/w)):");
        let _ = writeln!(
            out,
            "  {:<10} {:>5} {:>5} {:>5} {:>10} {:>12} {:>9} regime",
            "alg", "n", "M", "P", "words", "bound", "M*"
        );
        for r in &s.parallel {
            let _ = writeln!(
                out,
                "  {:<10} {:>5} {:>5} {:>5} {:>10} {:>12.1} {:>9.1} {}",
                r.alg.as_str(),
                r.n,
                r.m,
                r.p,
                r.words,
                r.bound,
                r.crossover_m,
                if r.memory_dependent {
                    "mem-dep"
                } else {
                    "mem-indep"
                }
            );
        }
    }
    if !s.pebble.is_empty() {
        let _ = writeln!(out, "\npebbling cells:");
        for (key, io, rc) in &s.pebble {
            let _ = writeln!(out, "  {key}: io={io} recomputes={rc}");
        }
    }
    if s.wall_us.count > 0 {
        let _ = writeln!(
            out,
            "\ncell wall time (us): p50={} p95={} max={} over {} cells",
            s.wall_us.p50(),
            s.wall_us.p95(),
            s.wall_us.max,
            s.wall_us.count
        );
    }
    if s.io.count > 0 {
        let _ = writeln!(
            out,
            "measured I/O (words): p50={} p95={} max={}",
            s.io.p50(),
            s.io.p95(),
            s.io.max
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{run_collect, RunConfig};
    use crate::spec::SweepSpec;

    fn smoke_summary() -> (Header, Summary) {
        let spec = SweepSpec::builtin("smoke").unwrap();
        let cfg = RunConfig {
            seed: 42,
            jobs: 2,
            ..RunConfig::default()
        };
        let records = run_collect(&spec, &cfg);
        let header = Header {
            spec: spec.name.clone(),
            spec_hash: spec.hash(),
            seed: 42,
            cells: records.len(),
        };
        (header, summarize(&records))
    }

    #[test]
    fn smoke_report_fits_exponents_and_ratios() {
        let (header, s) = smoke_summary();
        assert_eq!(s.errors, 0);
        assert_eq!(s.ok, header.cells);
        // smoke = {classical, strassen} x {8,16,32} x m=48 → two families.
        assert_eq!(s.exponents.len(), 2);
        for row in &s.exponents {
            // n = 8 is excluded by the memory-bound filter (n < 4√M).
            assert!(row.fit.points >= 2);
            assert!(
                (row.fit.exponent - row.expected).abs() < 0.5,
                "{} fitted {} vs model {}",
                row.alg.as_str(),
                row.fit.exponent,
                row.expected
            );
        }
        let (_, rmin) = s.ratio_min.clone().unwrap();
        assert!(rmin >= 1.0, "measured I/O below the bound: {rmin}");
        let text = render(&header, &s);
        assert!(text.contains("fitted I/O exponents"));
        assert!(text.contains("cell wall time"));
    }
}
