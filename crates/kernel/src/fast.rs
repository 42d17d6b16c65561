//! The fast recursion: `fmm-core`'s generic 2×2 step over blocks, with the
//! packed classical tile kernel at the leaves.
//!
//! Each level is [`fmm_core::exec::step`]: split, encode through the
//! algorithm's SLPs, multiply the `t` operand pairs, decode, join. What
//! makes it a *kernel* rather than an operation counter is the base case:
//! once the order drops to the cutoff n₀, the subproblem is handed to
//! [`crate::classical::gemm_block`], so leaf work runs on packed panels at
//! full micro-kernel speed. Non-power-of-two orders are padded to the next
//! power of two and cropped on the way out.
//!
//! With more than one thread, the *top* level's `t` subproducts run on the
//! crate's worker pool, each by the sequential recursion.

use crate::{classical, pool, Stats};
use fmm_core::exec;
use fmm_core::Bilinear2x2;
use fmm_faults::cancel;
use fmm_matrix::quad::{crop, next_pow2, pad_to};
use fmm_matrix::{Matrix, Scalar};
use std::sync::Mutex;

/// Multiply square operands of equal order with `alg`, recursing while the
/// order exceeds `cutoff`; any order works (padding).
pub(crate) fn multiply<T: Scalar>(
    alg: &Bilinear2x2,
    a: &Matrix<T>,
    b: &Matrix<T>,
    cutoff: usize,
    threads: usize,
    stats: &Stats,
) -> Matrix<T> {
    assert_eq!(
        a.rows(),
        a.cols(),
        "fast recursion needs a square left operand"
    );
    assert_eq!(
        b.rows(),
        b.cols(),
        "fast recursion needs a square right operand"
    );
    assert_eq!(a.rows(), b.rows(), "fast recursion needs equal orders");
    let n = a.rows();
    if n == 0 {
        return Matrix::zeros(0, 0);
    }
    let padded = next_pow2(n);
    if padded != n {
        let (pa, pb) = (pad_to(a, padded), pad_to(b, padded));
        let pc = recurse(alg, &pa, &pb, cutoff, 0, threads, stats);
        return crop(&pc, n, n);
    }
    recurse(alg, a, b, cutoff, 0, threads, stats)
}

fn recurse<T: Scalar>(
    alg: &Bilinear2x2,
    a: &Matrix<T>,
    b: &Matrix<T>,
    cutoff: usize,
    depth: usize,
    threads: usize,
    stats: &Stats,
) -> Matrix<T> {
    let n = a.rows();
    if n <= cutoff || n == 1 {
        let mut c = Matrix::zeros(n, n);
        classical::gemm_block(a.as_slice(), b.as_slice(), c.as_mut_slice(), n, n, n, stats);
        stats.leaf();
        return c;
    }
    cancel::poll();
    stats.level(depth, alg.t() as u64);
    let sub = |(x, y): (Matrix<T>, Matrix<T>)| recurse(alg, &x, &y, cutoff, depth + 1, 1, stats);
    exec::step(alg, a, b, |pairs| {
        if threads <= 1 {
            return pairs.into_iter().map(sub).collect();
        }
        let slots: Vec<Mutex<Option<Matrix<T>>>> = pairs.iter().map(|_| Mutex::new(None)).collect();
        pool(
            threads,
            pairs.into_iter().enumerate().collect(),
            |(i, pair)| {
                *slots[i].lock().expect("result slot") = Some(sub(pair));
            },
        );
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot")
                    .expect("uncancelled run fills every slot")
            })
            .collect()
    })
    .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_core::catalog;
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
    fn every_catalog_algorithm_is_bit_exact_through_the_kernel_recursion() {
        let mut algs = catalog::all_fast();
        algs.push(catalog::classical());
        for alg in &algs {
            for n in [1, 2, 7, 16, 24, 37] {
                let (a, b) = pair(n, 31 + n as u64);
                let reference = multiply_naive(&a, &b);
                for cutoff in [1, 4, n] {
                    for threads in [1, 3] {
                        let stats = Stats::default();
                        assert_eq!(
                            multiply(alg, &a, &b, cutoff, threads, &stats),
                            reference,
                            "{} n={n} cutoff={cutoff} threads={threads}",
                            alg.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn recursion_fans_out_t_products_per_level() {
        // 16 → 8 → 4 with cutoff 4: two levels of t products, t² leaves.
        let (a, b) = pair(16, 3);
        for alg in [catalog::winograd(), catalog::classical()] {
            let stats = Stats::default();
            let _ = multiply(&alg, &a, &b, 4, 1, &stats);
            let report = stats.report();
            let t = alg.t() as u64;
            assert_eq!(report.level_products, vec![t, t * t], "{}", alg.name);
            assert_eq!(report.leaf_products, t * t, "{}", alg.name);
        }
    }

    #[test]
    fn f64_agrees_with_naive_on_small_integers() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Matrix::<f64>::random_small(48, 48, &mut rng);
        let b = Matrix::<f64>::random_small(48, 48, &mut rng);
        // Integer-valued f64 inputs keep every intermediate exact, so the
        // rearranged additions still agree bitwise.
        let stats = Stats::default();
        assert_eq!(
            multiply(&catalog::strassen(), &a, &b, 16, 1, &stats),
            multiply_naive(&a, &b)
        );
    }
}
