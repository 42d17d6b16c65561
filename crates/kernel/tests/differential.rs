//! Differential proofs for the real kernel, against `fmm-matrix`'s
//! references.
//!
//! The claims, in order of strength:
//!
//! * **Bit-exact `i64` agreement.** Integer arithmetic has one right
//!   answer; the packed tile kernel and the Strassen recursion must both
//!   produce it for every generated shape, cutoff, and thread count.
//! * **`f64` against an exact rational reference.** Floating products are
//!   compared entrywise (tolerance scaled to the inner dimension) against
//!   the same multiply done in [`fmm_matrix::Rational`], which never
//!   rounds. For the small-integer workloads used everywhere in this
//!   workspace the f64 kernel is in fact *exact*, and a tighter assert
//!   pins that down.
//! * **The fused leaves are exact.** Every fast catalog algorithm, at
//!   one and two fused levels and with materialized levels above them,
//!   on orders that pad and leaves that cross the register tiles' edges,
//!   on one thread and on the pool, equals the naive `i64` product.
//! * **Cancellation soundness.** A fired token unwinds the multiply with
//!   the `Cancelled` sentinel and leaves no `fmm-kernel-*` worker threads
//!   behind (checked against `/proc/self/task/*/comm`).

use fmm_core::catalog;
use fmm_faults::cancel;
use fmm_kernel::{multiply, multiply_with_report, Alg, KernelCfg};
use fmm_matrix::multiply::multiply_naive;
use fmm_matrix::{Matrix, Rational};
use proptest::prelude::*;

fn int_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix<i64>> {
    proptest::collection::vec(-9i64..=9, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

/// A compatible (m×k, k×n) pair with every dimension drawn independently,
/// crossing the 4- and 8-row strip and 8- and 16-column panel boundaries.
fn mul_pair() -> impl Strategy<Value = (Matrix<i64>, Matrix<i64>)> {
    (1usize..=40, 1usize..=40, 1usize..=40)
        .prop_flat_map(|(m, k, n)| (int_matrix(m, k), int_matrix(k, n)))
}

fn square_pair(max: usize) -> impl Strategy<Value = (Matrix<i64>, Matrix<i64>)> {
    (1usize..=max).prop_flat_map(|n| (int_matrix(n, n), int_matrix(n, n)))
}

/// The kernel configuration each call site runs (classical ignores the
/// cutoff).
fn cfg(alg: Alg, cutoff: usize, threads: usize) -> KernelCfg {
    KernelCfg {
        alg,
        cutoff,
        threads,
    }
}

fn to_f64(m: &Matrix<i64>) -> Matrix<f64> {
    Matrix::from_fn(m.rows(), m.cols(), |i, j| m[(i, j)] as f64)
}

fn to_rational(m: &Matrix<i64>) -> Matrix<Rational> {
    Matrix::from_fn(m.rows(), m.cols(), |i, j| {
        Rational::new(m[(i, j)] as i128, 1)
    })
}

proptest! {
    #[test]
    fn classical_tiled_is_bit_exact_i64(
        pair in mul_pair(),
        threads in 1usize..=4,
    ) {
        let (a, b) = pair;
        let reference = multiply_naive(&a, &b);
        prop_assert_eq!(multiply(&cfg(Alg::Classical, 1, 1), &a, &b), reference.clone());
        prop_assert_eq!(multiply(&cfg(Alg::Classical, 1, threads), &a, &b), reference);
    }

    #[test]
    fn strassen_matches_classical_i64(
        pair in square_pair(48),
        cutoff in 1usize..=64,
        threads in 1usize..=4,
    ) {
        let (a, b) = pair;
        // Covers non-powers-of-two (padding path), cutoffs above and
        // below the order (pure-leaf and deep-recursion extremes), and
        // the top-level subproduct pool.
        let reference = multiply(&cfg(Alg::Classical, 1, 1), &a, &b);
        prop_assert_eq!(multiply(&cfg(Alg::Strassen, cutoff, 1), &a, &b), reference.clone());
        prop_assert_eq!(multiply(&cfg(Alg::Strassen, cutoff, threads), &a, &b), reference);
    }

    #[test]
    fn f64_kernel_tracks_the_rational_reference(
        pair in square_pair(24),
        cutoff in 1usize..=16,
    ) {
        let (a, b) = pair;
        let exact = multiply_naive(&to_rational(&a), &to_rational(&b));
        let (af, bf) = (to_f64(&a), to_f64(&b));
        // Entrywise bound: k products of magnitude ≤ 81, each rounding
        // at most half an ulp, summed — generous at these sizes.
        let tol = 1e-9 * a.cols() as f64;
        for c in [multiply(&cfg(Alg::Classical, 1, 1), &af, &bf), multiply(&cfg(Alg::Strassen, cutoff, 1), &af, &bf)] {
            for i in 0..c.rows() {
                for j in 0..c.cols() {
                    let want = exact[(i, j)].to_f64();
                    prop_assert!(
                        (c[(i, j)] - want).abs() <= tol,
                        "({}, {}): {} vs exact {}", i, j, c[(i, j)], want
                    );
                }
            }
        }
    }

    #[test]
    fn f64_small_int_products_are_exact(
        pair in square_pair(32),
        cutoff in 1usize..=16,
    ) {
        let (a, b) = pair;
        // Stronger than the tolerance claim: entries in [-9, 9] keep every
        // partial sum inside the 53-bit mantissa, so the f64 kernel agrees
        // with integer arithmetic to the last bit regardless of the
        // summation order the blocking/recursion picks.
        let exact = to_f64(&multiply_naive(&a, &b));
        let (af, bf) = (to_f64(&a), to_f64(&b));
        prop_assert_eq!(multiply(&cfg(Alg::Classical, 1, 1), &af, &bf), exact.clone());
        prop_assert_eq!(multiply(&cfg(Alg::Strassen, cutoff, 1), &af, &bf), exact);
    }
}

/// A compatible pair whose shape crosses the edges of both register
/// tiles, 4×8 and 8×16: 4- and 8-row remainders, 8- and 16-column
/// remainders and the MC = 64 row panel, with the shared dimension past
/// the KC = 256 depth block on about half the cases.
fn tile_edge_pair() -> impl Strategy<Value = (Matrix<i64>, Matrix<i64>)> {
    (1usize..=70, 1usize..=24, proptest::bool::ANY, 1usize..=140).prop_flat_map(
        |(m, k, deep, n)| {
            let k = if deep { k + 250 } else { k };
            (int_matrix(m, k), int_matrix(k, n))
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn f64_tile_edges_are_exact_on_small_integers(
        pair in tile_edge_pair(),
        threads in 1usize..=3,
    ) {
        let (a, b) = pair;
        // This runs whichever f64 micro-kernel the CPU selects (AVX-512F,
        // else AVX2+FMA, else portable); small integers keep every product
        // and partial sum exact on each. `classical.rs`'s unit tests force
        // every kernel the CPU has through the same edges.
        let exact = to_f64(&multiply_naive(&a, &b));
        let (af, bf) = (to_f64(&a), to_f64(&b));
        prop_assert_eq!(multiply(&cfg(Alg::Classical, 1, threads), &af, &bf), exact);
    }
}

/// A square pair whose recursion has exactly `levels` ∈ 1..=3 levels
/// above leaves of order `2^e` (e ≤ 4, so leaves of 1 to 16 cross the
/// 4×8 and 8×16 register tiles' edges): the order is drawn from
/// `(2^(levels+e-1), 2^(levels+e)]`, so most orders pad, and the cutoff
/// from `[2^e, 2^(e+1))`.
fn recursion_case() -> impl Strategy<Value = Case> {
    (1usize..=3, 0usize..=4, 0usize..64, 0usize..16).prop_flat_map(|(levels, e, pick, extra)| {
        let padded = 1usize << (levels + e);
        let n = padded - pick % (padded / 2).max(1);
        let cutoff = (1usize << e) + extra % (1usize << e);
        (int_matrix(n, n), int_matrix(n, n)).prop_map(move |(a, b)| Case {
            a,
            b,
            cutoff,
            levels,
        })
    })
}

#[derive(Clone, Debug)]
struct Case {
    a: Matrix<i64>,
    b: Matrix<i64>,
    cutoff: usize,
    levels: usize,
}

/// The kernel algorithm of each fast catalog algorithm, by name.
fn fast_algs() -> Vec<Alg> {
    catalog::all_fast()
        .iter()
        .map(|alg| Alg::parse(&alg.name).expect("the kernel runs every fast catalog algorithm"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// One or two levels are all fused; a third is materialized above
    /// them. On the pool the top level is the materialized split, with
    /// the rest fused below it. The counts are those of the recursion.
    #[test]
    fn fused_leaves_are_bit_exact_i64(case in recursion_case()) {
        let reference = multiply_naive(&case.a, &case.b);
        let products: Vec<u64> = (1..=case.levels as u32).map(|l| 7u64.pow(l)).collect();
        for alg in fast_algs() {
            for threads in [1, 3] {
                let (c, report) = multiply_with_report(&cfg(alg, case.cutoff, threads), &case.a, &case.b);
                prop_assert_eq!(&c, &reference, "{:?} threads={}", alg, threads);
                prop_assert_eq!(&report.level_products, &products);
                prop_assert_eq!(report.leaf_products, *products.last().unwrap());
            }
        }
    }
}

#[test]
fn fused_f64_is_exact_on_small_integers() {
    // 96 pads to 128; cutoff 32 fuses two levels, cutoff 16 adds one
    // materialized level above them. Entries in [-9, 9] keep every
    // weighted sum and partial product exact in f64.
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(12);
    let a = Matrix::<i64>::random_small(96, 96, &mut rng);
    let b = Matrix::<i64>::random_small(96, 96, &mut rng);
    let exact = to_f64(&multiply_naive(&a, &b));
    let (af, bf) = (to_f64(&a), to_f64(&b));
    for alg in fast_algs() {
        for cutoff in [16, 32, 64] {
            for threads in [1, 3] {
                let c = multiply(&cfg(alg, cutoff, threads), &af, &bf);
                assert_eq!(c, exact, "{alg:?} cutoff={cutoff} threads={threads}");
            }
        }
    }
}

/// The two thread-leak tests scan `/proc/self/task` for the whole
/// process, so they must not overlap with each other (the harness runs
/// `#[test]`s concurrently).
static THREAD_SCAN: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Worker threads this process currently runs, by name prefix.
fn live_kernel_threads() -> Vec<String> {
    let mut names = Vec::new();
    for entry in std::fs::read_dir("/proc/self/task").expect("procfs") {
        let comm = entry.expect("task entry").path().join("comm");
        if let Ok(name) = std::fs::read_to_string(comm) {
            if name.trim_end().starts_with("fmm-kernel") {
                names.push(name.trim_end().to_string());
            }
        }
    }
    names
}

/// "No wedged workers": every `fmm-kernel-*` task disappears promptly.
/// The scope has logically joined by the time the multiply returns, but
/// the *OS-level* task entry can outlive the join by a scheduler tick,
/// so this polls briefly instead of asserting on a single snapshot.
#[track_caller]
fn assert_workers_exit(ctx: &str) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let live = live_kernel_threads();
        if live.is_empty() {
            return;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "{ctx}: workers still alive after 10s: {live:?}"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
}

#[test]
fn cancelled_multiply_unwinds_with_the_sentinel_and_leaves_no_threads() {
    let _serial = THREAD_SCAN.lock().unwrap();
    let _quiet = cancel::quiet_panics();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    let a = Matrix::<i64>::random_small(96, 96, &mut rng);
    let b = Matrix::<i64>::random_small(96, 96, &mut rng);
    for threads in [1, 3] {
        let token = cancel::CancelToken::new();
        token.cancel();
        let _guard = cancel::enter(&token);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            multiply(&cfg(Alg::Strassen, 16, threads), &a, &b)
        }))
        .expect_err("a pre-cancelled token must abort the multiply");
        assert!(
            cancel::cancelled_reason(payload.as_ref()).is_some(),
            "threads={threads}: panic payload was not the Cancelled sentinel"
        );
        assert_workers_exit(&format!("threads={threads}"));
    }
}

#[test]
fn deadline_token_cuts_a_long_multiply_short() {
    let _serial = THREAD_SCAN.lock().unwrap();
    let _quiet = cancel::quiet_panics();
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(8);
    let a = Matrix::<i64>::random_small(256, 256, &mut rng);
    let b = Matrix::<i64>::random_small(256, 256, &mut rng);
    let token = cancel::CancelToken::with_deadline(std::time::Duration::from_millis(1));
    let _guard = cancel::enter(&token);
    let start = std::time::Instant::now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        multiply(&cfg(Alg::Classical, 1, 2), &a, &b)
    }));
    // Micro-tile-granularity polling: either the multiply finished inside
    // the budget (tiny machines do exist) or it bailed promptly — it must
    // not run to completion long after the deadline.
    if let Err(payload) = outcome {
        assert!(cancel::cancelled_reason(payload.as_ref()).is_some());
        assert!(
            start.elapsed() < std::time::Duration::from_secs(20),
            "bail took implausibly long"
        );
    }
    assert_workers_exit("deadline");
}
