//! The fast recursion: fused leaves at the bottom, `fmm-core`'s generic
//! 2×2 step above them.
//!
//! The bottom `L = min(2, levels)` levels of the recursion run fused, the
//! "ABC" scheme of Huang, Smith, Henry and van de Geijn, *Strassen's
//! Algorithm Reloaded* (SC16). Taking the `L`-fold Kronecker power of
//! the algorithm's `u`, `v` and `w` turns those levels into `t^L` leaf
//! products, each `Σ w·C-blocks += (Σ u·A-blocks)(Σ v·B-blocks)` over
//! order-`n/2^L` blocks of the operands. [`classical::gemm_block`] runs
//! each one: it packs the weighted sums of A and B blocks straight into
//! its panels and adds every C tile into each of its destination blocks.
//! The encoded operands and the products are never stored; they are
//! recomputed at every repack, which is recomputation in the paper's
//! sense. The only buffers are the packing buffers, shared by all the
//! leaves.
//!
//! Above the fused levels each level is [`fmm_core::exec::step`]: split,
//! encode through the algorithm's SLPs, multiply the `t` operand pairs,
//! decode, join. Non-power-of-two orders are padded to the next power of
//! two and cropped on the way out.
//!
//! With more than one thread, the *top* level stays a materialized step
//! whose `t` subproducts run on the crate's worker pool, each fused below
//! it.

use crate::classical::{self, Blocks, Packs, Product};
use crate::{pool, Stats};
use fmm_core::exec;
use fmm_core::Bilinear2x2;
use fmm_faults::cancel;
use fmm_matrix::quad::{crop, next_pow2, pad_to};
use fmm_matrix::{Matrix, Scalar};
use std::sync::Mutex;

/// Recursion levels the fused leaves take at the bottom. Two beat one
/// and three at n = 512, cutoff 64 (DESIGN.md §7).
const FUSED_LEVELS: usize = 2;

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

/// How many times the recursion halves order `n` (a power of two) before
/// its leaves are at most `cutoff`.
fn levels(mut n: usize, cutoff: usize) -> usize {
    let mut levels = 0;
    while n > cutoff && n > 1 {
        n /= 2;
        levels += 1;
    }
    levels
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
    let below = levels(a.rows(), cutoff);
    if below == 0 || (below <= FUSED_LEVELS && threads <= 1) {
        return fused(alg, a, b, below, depth, stats);
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

/// One block sum of a leaf product, at the resolution of the levels
/// expanded so far: `(coefficient, block row, block column)` per term.
type Terms = Vec<(i64, usize, usize)>;

/// Refine `terms` by one level through one row of coefficients over the
/// quadrants (`11, 12, 21, 22`): each block splits into four, and the
/// quadrants with a nonzero coefficient stay.
fn refine(terms: &Terms, row: impl Fn(usize) -> i64) -> Terms {
    let mut out = Vec::new();
    for &(coef, i, j) in terms {
        for q in 0..4 {
            let c = row(q);
            if c != 0 {
                out.push((coef * c, 2 * i + q / 2, 2 * j + q % 2));
            }
        }
    }
    out
}

/// The bottom `levels` levels of `alg` on order-`n` operands as `t^levels`
/// leaf products of order `n / 2^levels`, each run by the classical loop
/// nest on weighted sums of blocks (zero levels: one classical leaf).
fn fused<T: Scalar>(
    alg: &Bilinear2x2,
    a: &Matrix<T>,
    b: &Matrix<T>,
    levels: usize,
    depth: usize,
    stats: &Stats,
) -> Matrix<T> {
    let n = a.rows();
    let h = n >> levels;
    let whole: Terms = vec![(1, 0, 0)];
    let mut leaves = vec![[whole.clone(), whole.clone(), whole]];
    for level in 0..levels {
        leaves = leaves
            .iter()
            .flat_map(|[u, v, w]| {
                (0..alg.t()).map(move |r| {
                    [
                        refine(u, |q| alg.u[r][q]),
                        refine(v, |q| alg.v[r][q]),
                        refine(w, |q| alg.w[q][r]),
                    ]
                })
            })
            .collect();
        stats.level(depth + level, leaves.len() as u64);
    }
    let blocks = |terms: &Terms| Blocks {
        ld: n,
        terms: terms
            .iter()
            .map(|&(coef, i, j)| (T::from_i64(coef), (i * n + j) * h))
            .collect(),
    };
    let (a, b) = (a.as_slice(), b.as_slice());
    let mut c = Matrix::zeros(n, n);
    let mut packs = Packs::default();
    for [u, v, w] in &leaves {
        let product = Product {
            a: blocks(u),
            b: blocks(v),
            c: blocks(w),
        };
        classical::gemm_block(
            a,
            b,
            c.as_mut_slice(),
            &product,
            (h, h, h),
            &mut packs,
            stats,
        );
        stats.leaf();
    }
    c
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
