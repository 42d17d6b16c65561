//! # fmm-kernel — the measured hot path
//!
//! Everything else in the workspace *simulates* I/O; this crate actually
//! multiplies matrices fast, so measured wall time can be correlated
//! against `fmm-memsim`'s predicted I/O for the same (algorithm, n,
//! cutoff) grid cell (EXPERIMENTS §X16).
//!
//! One entry point, [`multiply`] (or [`multiply_with_report`]), runs a
//! [`KernelCfg`]. It is generic over [`fmm_matrix::Scalar`] (the two that
//! matter in practice are `f64` and `i64` — the differential suite proves
//! bit-exact `i64` agreement with the naive reference). Three algorithms:
//!
//! * [`Alg::Classical`] — cache-blocked classical multiplication. One
//!   BLIS-style loop nest, generic over the register tile, packs
//!   contiguous panels of A (`MC`×`KC`) and B (`KC`×`NC`) and runs a
//!   micro-kernel over them: the portable generic 4×8 for every scalar,
//!   or, for `f64` on x86-64 (detected at run time, see
//!   [`f64_kernel_isa`]), a `std::arch` fused multiply-add kernel — 8×16
//!   on AVX-512F, else 4×8 on AVX2+FMA. A fused multiply-add rounds once,
//!   so general `f64` results may differ from `multiply_naive` in the
//!   last bits (the two fused kernels agree with each other exactly);
//!   small-integer operands (every benchmark, golden and checksum here)
//!   stay exact. With `threads > 1`, `MC`-row panels of C are the work
//!   items.
//! * [`Alg::Strassen`] and [`Alg::Winograd`] — `fmm_core::catalog`'s
//!   2×2 algorithm of that name, recursing while the order exceeds the
//!   cutoff n₀, so every leaf is at most n₀. The bottom two levels (or
//!   one, or none, if the recursion is that shallow) are *fused*, the ABC
//!   scheme of Huang, Smith, Henry and van de Geijn, *Strassen's
//!   Algorithm Reloaded* (SC16): each of their `7²` leaf products runs
//!   through the classical loop nest, which packs the weighted sums of A
//!   and B blocks straight into its panels and adds each C tile into
//!   every C block it decodes into. No encoded operand and no product is
//!   stored; each is recomputed at every repack. Levels above those run
//!   `fmm-core`'s generic 2×2 step ([`fmm_core::exec::step`]), which
//!   materializes them. Non-power-of-two orders are padded up and
//!   cropped. With `threads > 1`, the top level stays a materialized step
//!   whose seven subproducts are the work items, each fused below it.
//!
//! Both kinds of work item run on one scoped worker pool of std threads
//! named `fmm-kernel-{w}`.
//!
//! Cancellation: every path polls [`fmm_faults::cancel`] at micro-tile
//! boundaries, so a served kernel job honours deadlines and drains. The
//! pool re-publishes the caller's scoped token into each worker; a fired
//! token unwinds every worker, the scope joins them all (no wedged
//! threads, by construction), and the sentinel is re-raised once on the
//! calling thread.
//!
//! Observability: [`multiply_with_report`] returns a [`Report`] (packing
//! time, micro-tile and leaf counts, per-level recursion fan-out) and
//! mirrors it into `fmm-obs` counters (`kernel_pack_ns`,
//! `kernel_micro_tiles`, `kernel_leaf_products`, `kernel_level_products`)
//! under a `kernel.multiply` span.

mod classical;
mod fast;

pub use classical::{f64_kernel_isa, F64_KERNELS};

use fmm_faults::cancel;
use fmm_matrix::{Matrix, Scalar};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

// MC/KC/NC were measured on a 2-core AVX-512 Xeon (48 KiB L1d, 2 MiB L2
// per core) with the 8×16 kernel: fourteen (MC, KC, NC) points spanning
// MC 32–128, KC 128–512 and NC 256–512, best of 100–120 in-process runs
// each of classical and Strassen-c64 at n = 256 and 512, all landed
// within the host's run-to-run noise of 64/256/512, and KC = 512 was
// slower at n = 512. At 64/256/512 an A strip (8×KC f64, 16 KiB) stays
// in L1 while the B slab (KC×NC, 1 MiB) streams from L2.

/// Rows per packed A panel (and per row-panel work item in the threaded
/// classical path); a multiple of every micro-kernel's tile height.
pub const MC: usize = 64;
/// Shared inner dimension per packed panel pair.
pub const KC: usize = 256;
/// Columns per packed B panel.
pub const NC: usize = 512;
/// Rows per counted micro tile: [`Report::micro_tiles`] counts `MR`-row
/// units whichever kernel ran. Also the portable and AVX2 tile height.
pub const MR: usize = 4;

/// Which algorithm [`multiply`] runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Alg {
    Classical,
    Strassen,
    Winograd,
}

impl Alg {
    /// Every algorithm, in [`Alg::NAMES`] order.
    pub const ALL: [Alg; 3] = [Alg::Classical, Alg::Strassen, Alg::Winograd];
    /// The algorithms' names, as [`Alg::parse`] reads them.
    pub const NAMES: [&'static str; 3] = ["classical", "strassen", "winograd"];

    pub fn parse(s: &str) -> Option<Alg> {
        let i = Alg::NAMES.iter().position(|&name| name == s)?;
        Some(Alg::ALL[i])
    }

    pub fn as_str(self) -> &'static str {
        Alg::NAMES[self as usize]
    }

    /// The `fmm-core` algorithm a fast variant runs (`None` for
    /// classical, which runs the tile kernel directly).
    fn bilinear(self) -> Option<fmm_core::Bilinear2x2> {
        match self {
            Alg::Classical => None,
            Alg::Strassen => Some(fmm_core::catalog::strassen()),
            Alg::Winograd => Some(fmm_core::catalog::winograd()),
        }
    }
}

/// How [`multiply`] runs: algorithm, Strassen cutoff n₀ (leaves at or
/// below this order use the classical tile kernel), and worker threads
/// (1 = run on the calling thread).
#[derive(Clone, Copy, Debug)]
pub struct KernelCfg {
    pub alg: Alg,
    pub cutoff: usize,
    pub threads: usize,
}

impl Default for KernelCfg {
    fn default() -> KernelCfg {
        KernelCfg {
            alg: Alg::Strassen,
            cutoff: 64,
            threads: 1,
        }
    }
}

/// What one multiply did, for the CLI report table and the obs mirror.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Report {
    /// Nanoseconds spent gathering A/B tiles into contiguous panels,
    /// adding up a fused leaf's weighted block sums included.
    pub pack_ns: u64,
    /// [`MR`]-row units of C the micro-kernel swept, `ceil(rows / MR)`
    /// per packed A strip and block: each covers up to [`MR`]×[`NC`] of
    /// C. The count does not depend on which kernel (tile shape) ran.
    pub micro_tiles: u64,
    /// Classical leaf products run by the Strassen recursion (0 for a
    /// pure classical multiply).
    pub leaf_products: u64,
    /// Subproducts spawned per recursion level: `level_products[d]` is
    /// the number of recursive products entered at depth `d`.
    pub level_products: Vec<u64>,
}

const MAX_LEVELS: usize = 32;

/// Shared accumulator both paths thread through (atomics, so the worker
/// pool adds to it without locks).
#[derive(Default)]
pub(crate) struct Stats {
    pack_ns: AtomicU64,
    micro_tiles: AtomicU64,
    leaf_products: AtomicU64,
    levels: [AtomicU64; MAX_LEVELS],
}

impl Stats {
    pub(crate) fn pack(&self, ns: u64) {
        self.pack_ns.fetch_add(ns, Ordering::Relaxed);
    }
    pub(crate) fn tiles(&self, n: u64) {
        self.micro_tiles.fetch_add(n, Ordering::Relaxed);
    }
    pub(crate) fn leaf(&self) {
        self.leaf_products.fetch_add(1, Ordering::Relaxed);
    }
    pub(crate) fn level(&self, depth: usize, products: u64) {
        self.levels[depth.min(MAX_LEVELS - 1)].fetch_add(products, Ordering::Relaxed);
    }

    fn report(&self) -> Report {
        let mut level_products: Vec<u64> = self
            .levels
            .iter()
            .map(|l| l.load(Ordering::Relaxed))
            .collect();
        while level_products.last() == Some(&0) {
            level_products.pop();
        }
        Report {
            pack_ns: self.pack_ns.load(Ordering::Relaxed),
            micro_tiles: self.micro_tiles.load(Ordering::Relaxed),
            leaf_products: self.leaf_products.load(Ordering::Relaxed),
            level_products,
        }
    }
}

/// Digit names for the per-level counter labels (labels are `&'static str`).
const LEVEL_NAMES: [&str; MAX_LEVELS] = [
    "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "16",
    "17", "18", "19", "20", "21", "22", "23", "24", "25", "26", "27", "28", "29", "30", "31",
];

/// Multiply under `cfg`. Panics on a dimension mismatch, on `cutoff ==
/// 0` / `threads == 0` (validate at the CLI/admission layer; these are
/// programmer errors here), and — cooperatively — when the scoped
/// [`fmm_faults::cancel`] token fires mid-multiply.
pub fn multiply<T: Scalar>(cfg: &KernelCfg, a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    multiply_with_report(cfg, a, b).0
}

/// [`multiply`], also returning the [`Report`] and mirroring it into the
/// global `fmm-obs` registry.
pub fn multiply_with_report<T: Scalar>(
    cfg: &KernelCfg,
    a: &Matrix<T>,
    b: &Matrix<T>,
) -> (Matrix<T>, Report) {
    assert!(cfg.cutoff >= 1, "kernel cutoff must be at least 1");
    assert!(cfg.threads >= 1, "kernel threads must be at least 1");
    let mut span = fmm_obs::span::Span::enter("kernel.multiply");
    let stats = Stats::default();
    let c = match cfg.alg.bilinear() {
        None => classical::multiply(a, b, cfg.threads, &stats),
        Some(alg) => fast::multiply(&alg, a, b, cfg.cutoff, cfg.threads, &stats),
    };
    let report = stats.report();
    publish(&report);
    span.record("n", a.rows() as u64);
    span.record("cutoff", cfg.cutoff as u64);
    span.record("threads", cfg.threads as u64);
    span.record("micro_tiles", report.micro_tiles);
    span.record("pack_ns", report.pack_ns);
    (c, report)
}

/// The crate's one worker pool: run `work` over `items` on up to `threads`
/// scoped std threads (`fmm-kernel-{w}`) popping from a shared queue.
///
/// Each worker re-enters the caller's [`cancel`] token, so the polls inside
/// `work` see it. A cancel bail just ends that worker — every sibling
/// observes the same token — and the sentinel is re-raised once on the
/// calling thread after the scope has joined everyone. Any other panic is a
/// real fault and propagates through the join.
pub(crate) fn pool<I: Send>(threads: usize, items: Vec<I>, work: impl Fn(I) + Sync) {
    let token = cancel::current();
    let workers = threads.min(items.len());
    let queue = Mutex::new(items);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let token = token.clone();
            let (queue, work) = (&queue, &work);
            std::thread::Builder::new()
                .name(format!("fmm-kernel-{w}"))
                .spawn_scoped(scope, move || {
                    let _guard = token.as_ref().map(cancel::enter);
                    let outcome = catch_unwind(AssertUnwindSafe(|| loop {
                        let item = queue.lock().expect("work queue").pop();
                        let Some(item) = item else { break };
                        work(item);
                    }));
                    if let Err(payload) = outcome {
                        if cancel::cancelled_reason(payload.as_ref()).is_none() {
                            std::panic::resume_unwind(payload);
                        }
                    }
                })
                .expect("spawn kernel worker");
        }
    });
    if let Some(t) = &token {
        t.bail_if_cancelled();
    }
}

fn publish(report: &Report) {
    fmm_obs::observe("kernel_pack_ns", &[], report.pack_ns);
    fmm_obs::add("kernel_micro_tiles", &[], report.micro_tiles);
    fmm_obs::add("kernel_leaf_products", &[], report.leaf_products);
    for (depth, products) in report.level_products.iter().enumerate() {
        if *products > 0 {
            fmm_obs::add(
                "kernel_level_products",
                &[("level", LEVEL_NAMES[depth].to_string())],
                *products,
            );
        }
    }
}

/// Classical-equivalent flop count `2n³ − n²` for a square order-`n`
/// multiply — the normaliser rate reports use (Strassen does fewer).
pub fn classical_flops(n: usize) -> u64 {
    let n = n as u64;
    2 * n * n * n - n * n
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_matrix::multiply::multiply_naive;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn pair(n: usize, seed: u64) -> (Matrix<i64>, Matrix<i64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        (
            Matrix::<i64>::random_small(n, n, &mut rng),
            Matrix::<i64>::random_small(n, n, &mut rng),
        )
    }

    #[test]
    fn alg_parses_and_round_trips() {
        assert_eq!(Alg::parse("classical"), Some(Alg::Classical));
        assert_eq!(Alg::parse("strassen"), Some(Alg::Strassen));
        assert_eq!(Alg::parse("winograd"), Some(Alg::Winograd));
        assert_eq!(Alg::parse("ks"), None);
        for alg in Alg::ALL {
            assert_eq!(Alg::parse(alg.as_str()), Some(alg));
        }
    }

    #[test]
    fn every_alg_matches_naive_through_the_config_entry_point() {
        let (a, b) = pair(37, 9);
        let reference = multiply_naive(&a, &b);
        for alg in Alg::ALL {
            for threads in [1, 3] {
                let cfg = KernelCfg {
                    alg,
                    cutoff: 8,
                    threads,
                };
                assert_eq!(multiply(&cfg, &a, &b), reference, "{alg:?} t{threads}");
            }
        }
    }

    #[test]
    fn report_counts_strassen_levels_and_leaves() {
        let (a, b) = pair(32, 3);
        let cfg = KernelCfg {
            alg: Alg::Strassen,
            cutoff: 8,
            threads: 1,
        };
        let (_, report) = multiply_with_report(&cfg, &a, &b);
        // 32 → 16 → 8: two recursion levels, 7 then 49 products, then
        // 49 classical leaves.
        assert_eq!(report.level_products, vec![7, 49]);
        assert_eq!(report.leaf_products, 49);
        assert!(report.micro_tiles > 0);
    }

    #[test]
    fn classical_report_has_no_recursion() {
        let (a, b) = pair(48, 4);
        let cfg = KernelCfg {
            alg: Alg::Classical,
            cutoff: 64,
            threads: 1,
        };
        let (c, report) = multiply_with_report(&cfg, &a, &b);
        assert_eq!(c, multiply_naive(&a, &b));
        assert!(report.level_products.is_empty());
        assert_eq!(report.leaf_products, 0);
        // 48 rows → 12 MR-row units in one panel.
        assert_eq!(report.micro_tiles, 12);
    }

    #[test]
    #[should_panic(expected = "cutoff must be at least 1")]
    fn zero_cutoff_is_a_programmer_error() {
        let (a, b) = pair(4, 1);
        let cfg = KernelCfg {
            alg: Alg::Strassen,
            cutoff: 0,
            threads: 1,
        };
        let _ = multiply(&cfg, &a, &b);
    }

    #[test]
    fn classical_flops_matches_the_closed_form() {
        assert_eq!(classical_flops(1), 1);
        assert_eq!(classical_flops(2), 12);
        assert_eq!(classical_flops(512), 2 * 512u64.pow(3) - 512u64.pow(2));
    }
}
