//! Execution of one sweep cell: dispatch to the right simulator, collect
//! the measured I/O, evaluate the Theorem 1.1 bound, and derive the
//! deterministic per-cell workload seed.

use crate::spec::{AlgKind, Cell, RunMode};
use fmm_cdag::RecursiveCdag;
use fmm_core::altbasis::karstadt_schwartz;
use fmm_core::{bounds, catalog, Bilinear2x2};
use fmm_faults::splitmix64;
use fmm_matrix::Matrix;
use fmm_memsim::{par, seq};
use fmm_pebbling::game::run_schedule;
use fmm_pebbling::players::{demand_schedule, EvictionMode};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// What one completed cell measured.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Measurement {
    /// Total I/O: loads+stores (sequential / pebbling) or total words
    /// moved (parallel).
    pub io: u64,
    /// Loads (sequential / pebbling; 0 for parallel cells).
    pub loads: u64,
    /// Stores (sequential / pebbling; 0 for parallel cells).
    pub stores: u64,
    /// Max per-processor words (parallel cells; 0 otherwise).
    pub words: u64,
    /// Model flop count, leading term `coeff · n^ω` (see
    /// `AlgKind::flop_coefficient`).
    pub flops: u64,
    /// Recompute moves (pebbling cells; 0 otherwise).
    pub recomputes: u64,
    /// Cache hits (sequential cache cells; 0 otherwise).
    pub hits: u64,
    /// Cache accesses (sequential cache cells; 0 otherwise).
    pub accesses: u64,
    /// The Table I lower-bound value for this cell's regime.
    pub bound: f64,
    /// `measured / bound` — the quantity whose min/max the report tracks.
    pub ratio: f64,
}

/// Deterministic workload seed for a cell: mixes the root seed with the
/// cell's stable id and repetition, so every cell (and every rep) sees an
/// independent, reproducible input.
pub fn cell_seed(root: u64, cell: &Cell) -> u64 {
    splitmix64(root ^ splitmix64(cell.id as u64 ^ ((cell.rep as u64) << 32)))
}

fn fast_algorithm(alg: AlgKind) -> Bilinear2x2 {
    match alg {
        AlgKind::Strassen => catalog::strassen(),
        AlgKind::Winograd => catalog::winograd(),
        AlgKind::Ks => karstadt_schwartz().core,
        AlgKind::Classical => unreachable!("classical has no 2x2 fast form"),
    }
}

fn model_flops(alg: AlgKind, n: usize) -> u64 {
    (alg.flop_coefficient() * (n as f64).powf(alg.omega())) as u64
}

/// Run one cell. Errors are returned as strings (the engine additionally
/// catches panics); determinism is the contract — the same cell and seed
/// must produce the same [`Measurement`], bit for bit, wall time aside.
pub fn run_cell(cell: &Cell, seed: u64) -> Result<Measurement, String> {
    match cell.mode {
        RunMode::Cache if cell.p == 1 => run_cache_cell(cell, seed),
        RunMode::Cache => run_parallel_cell(cell, seed),
        RunMode::PebbleSr | RunMode::PebbleRc => run_pebble_cell(cell),
    }
}

fn run_cache_cell(cell: &Cell, seed: u64) -> Result<Measurement, String> {
    let (n, m) = (cell.n, cell.m);
    let alg = (cell.alg != AlgKind::Classical).then(|| fast_algorithm(cell.alg));
    let tile = seq::natural_tile(m);
    let stats = seq::simulate(alg.as_ref(), n, m, tile, cell.policy, seed, None).stats;
    let bound = bounds::sequential(n, m, cell.alg.omega());
    Ok(Measurement {
        io: stats.io(),
        loads: stats.loads,
        stores: stats.stores,
        words: 0,
        flops: model_flops(cell.alg, n),
        recomputes: 0,
        hits: stats.hits,
        accesses: stats.accesses,
        bound,
        ratio: stats.io() as f64 / bound,
    })
}

fn run_parallel_cell(cell: &Cell, seed: u64) -> Result<Measurement, String> {
    let n = cell.n;
    let mut rng = StdRng::seed_from_u64(seed);
    let a = Matrix::<i64>::random_small(n, n, &mut rng);
    let b = Matrix::<i64>::random_small(n, n, &mut rng);
    let net = if cell.alg == AlgKind::Classical {
        let side = (cell.p as f64).sqrt().round() as usize;
        par::cannon(&a, &b, side).1
    } else {
        let levels = (cell.p as f64).log(7.0).round() as usize;
        par::caps_strassen(&fast_algorithm(cell.alg), &a, &b, levels).1
    };
    // The parallel bounds constrain max per-processor communication. The
    // simulated schedules (Cannon, CAPS) replicate operands across the
    // grid — their per-processor memory is ≈ 3n²/P, not the grid's M — so
    // the memory-independent bound is the one that binds unconditionally.
    let bound = bounds::parallel_memory_independent(n, cell.p, cell.alg.omega());
    let words = net.max_per_proc();
    Ok(Measurement {
        io: net.total_words,
        loads: 0,
        stores: 0,
        words,
        flops: model_flops(cell.alg, n),
        recomputes: 0,
        hits: 0,
        accesses: 0,
        bound,
        ratio: words as f64 / bound,
    })
}

fn run_pebble_cell(cell: &Cell) -> Result<Measurement, String> {
    let g = RecursiveCdag::build(&fast_algorithm(cell.alg).to_base(), cell.n).graph;
    let (evict, allow_recompute) = match cell.mode {
        RunMode::PebbleSr => (EvictionMode::StoreReload, false),
        RunMode::PebbleRc => (EvictionMode::Recompute, true),
        RunMode::Cache => unreachable!("dispatched above"),
    };
    let moves =
        demand_schedule(&g, cell.m, evict).map_err(|e| format!("demand schedule: {e:?}"))?;
    let r = run_schedule(&g, &moves, cell.m, allow_recompute)
        .map_err(|e| format!("illegal schedule: {e:?}"))?;
    let bound = bounds::sequential(cell.n, cell.m, cell.alg.omega());
    Ok(Measurement {
        io: r.io(),
        loads: r.loads,
        stores: r.stores,
        words: 0,
        flops: model_flops(cell.alg, cell.n),
        recomputes: r.recomputes,
        hits: 0,
        accesses: 0,
        bound,
        ratio: r.io() as f64 / bound,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{PolicyKind, SweepSpec};

    fn cell(alg: AlgKind, n: usize, m: usize, p: usize, mode: RunMode) -> Cell {
        Cell {
            id: 0,
            alg,
            n,
            m,
            p,
            policy: PolicyKind::Lru,
            mode,
            rep: 0,
        }
    }

    #[test]
    fn cell_seeds_are_deterministic_and_spread() {
        let c0 = cell(AlgKind::Strassen, 8, 48, 1, RunMode::Cache);
        let mut c1 = c0.clone();
        c1.id = 1;
        assert_eq!(cell_seed(7, &c0), cell_seed(7, &c0));
        assert_ne!(cell_seed(7, &c0), cell_seed(7, &c1));
        assert_ne!(cell_seed(7, &c0), cell_seed(8, &c0));
    }

    #[test]
    fn cache_cell_measures_above_bound() {
        let c = cell(AlgKind::Strassen, 16, 48, 1, RunMode::Cache);
        let m = run_cell(&c, 1).unwrap();
        assert!(m.io > 0);
        assert_eq!(m.io, m.loads + m.stores);
        assert!(m.ratio >= 1.0, "measured I/O below the lower bound");
        assert!(m.accesses >= m.hits);
    }

    #[test]
    fn cache_cell_io_is_seed_independent_wall_aside() {
        // The access pattern is data-oblivious: two different workloads
        // must report identical I/O counters.
        let c = cell(AlgKind::Classical, 16, 48, 1, RunMode::Cache);
        let a = run_cell(&c, 1).unwrap();
        let b = run_cell(&c, 2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn opt_cell_floors_lru() {
        let lru = cell(AlgKind::Classical, 16, 48, 1, RunMode::Cache);
        let mut opt = lru.clone();
        opt.policy = PolicyKind::Opt;
        let lru = run_cell(&lru, 3).unwrap();
        let opt = run_cell(&opt, 3).unwrap();
        assert!(opt.io <= lru.io, "OPT {} must floor LRU {}", opt.io, lru.io);
    }

    #[test]
    fn parallel_cell_reports_words() {
        let c = cell(AlgKind::Classical, 16, 96, 16, RunMode::Cache);
        let m = run_cell(&c, 5).unwrap();
        assert!(m.words > 0);
        assert!(m.io >= m.words, "total words ≥ max per-proc");
        assert!(
            m.ratio >= 1.0,
            "below memory-independent bound: {}",
            m.ratio
        );
        let c7 = cell(AlgKind::Strassen, 16, 96, 7, RunMode::Cache);
        let m7 = run_cell(&c7, 5).unwrap();
        assert!(m7.words > 0);
        assert!(
            m7.ratio >= 1.0,
            "below memory-independent bound: {}",
            m7.ratio
        );
    }

    #[test]
    fn pebble_cells_recompute_mode_records_recomputes() {
        // M = 16: the smallest capacity where the recomputing player has
        // a legal schedule for the n = 4 Strassen CDAG.
        let sr = cell(AlgKind::Strassen, 4, 16, 1, RunMode::PebbleSr);
        let rc = cell(AlgKind::Strassen, 4, 16, 1, RunMode::PebbleRc);
        let sr = run_cell(&sr, 0).unwrap();
        let rc = run_cell(&rc, 0).unwrap();
        assert_eq!(sr.recomputes, 0);
        assert!(rc.stores <= sr.stores, "recompute trades stores for loads");
    }

    #[test]
    fn every_builtin_cell_executes() {
        // Each builtin spec's cells all run to a deterministic outcome
        // (ok or a clean error) without panicking. Heavy cells excluded:
        // keep n ≤ 32 to stay test-sized.
        for name in SweepSpec::builtin_names() {
            let spec = SweepSpec::builtin(name).unwrap();
            for c in spec.expand().into_iter().filter(|c| c.n <= 32) {
                let first = run_cell(&c, cell_seed(42, &c));
                let second = run_cell(&c, cell_seed(42, &c));
                assert_eq!(first, second, "{name} cell {} not deterministic", c.id);
            }
        }
    }
}
