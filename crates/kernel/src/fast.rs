//! The fast recursion: fused leaves at the bottom, one level routine above
//! them, every buffer taken from the caller's [`Scratch`].
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
//! Each level above the fused ones is [`level`]: it runs its `t` products
//! one at a time through one buffer triple (encoded A, encoded B,
//! product). Product `r` encodes `Σ u[r]·A-quadrants` straight from the
//! parent's quadrant views into the first buffer (a lone unit term is
//! passed on as the quadrant view itself, uncopied), likewise B, computes
//! the product into the zeroed third buffer, and adds it into the
//! parent's C quadrants with the decoder's coefficients `w[·][r]`. There
//! are no split, join or decode temporaries, so the memory of a
//! multiply is three `(n/2^d)²` buffers per materialized level `d`, plus
//! the packs (DESIGN.md §7). Non-power-of-two orders are padded to the
//! next power of two and cropped on the way out, through three more
//! reused buffers.
//!
//! With more than one thread, the *top* level runs the same encode,
//! product and decode with its `t` products on the crate's worker pool:
//! each worker encodes into its own buffers and computes into the
//! product's own buffer, and the products are decoded in order after the
//! join.

use crate::classical::{self, Blocks, Packs, Product};
use crate::{grow, pool, Buf, Scratch, Stats};
use fmm_core::Bilinear2x2;
use fmm_faults::cancel;
use fmm_matrix::quad::next_pow2;
use fmm_matrix::{Matrix, Scalar};

/// Recursion levels the fused leaves take at the bottom. Two beat one
/// and three at n = 512, cutoff 64 (DESIGN.md §7).
pub(crate) const FUSED_LEVELS: usize = 2;

/// A square block of a row-major slice: entry `(i, j)` is at
/// `at + i·ld + j`.
#[derive(Clone, Copy, Debug)]
struct View {
    at: usize,
    ld: usize,
}

impl View {
    /// A whole row-major matrix of order `n`.
    fn dense(n: usize) -> View {
        View { at: 0, ld: n }
    }

    /// Offset of quadrant `q` (`11, 12, 21, 22`) of this order-`2h` block.
    fn quadrant(self, q: usize, h: usize) -> usize {
        self.at + (q / 2 * self.ld + q % 2) * h
    }
}

/// `c = a·b` for square operands of equal order with `alg`, recursing
/// while the order exceeds `cutoff`; any order works (padding). `c` must
/// hold the zeroed row-major product.
#[allow(clippy::too_many_arguments)]
pub(crate) fn multiply<T: Scalar>(
    alg: &Bilinear2x2,
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &mut [T],
    cutoff: usize,
    threads: usize,
    scratch: &mut Scratch<T>,
    stats: &Stats,
) {
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
        return;
    }
    let padded = next_pow2(n);
    if padded == n {
        let (a, b) = (a.as_slice(), b.as_slice());
        return top(alg, a, b, c, n, cutoff, threads, scratch, stats);
    }
    // Taken out for the multiply so the rest of `scratch` stays free; a
    // cancelled multiply drops them, and the next one grows them again.
    let mut pads = std::mem::take(&mut scratch.padded);
    let [pa, pb, pc] = &mut pads;
    let len = padded * padded;
    let (pa, pb, pc) = (pa.at_least(len), pb.at_least(len), pc.at_least(len));
    for (dst, src) in [(&mut *pa, a), (&mut *pb, b)] {
        dst.fill(T::zero());
        for (row, src) in dst
            .chunks_exact_mut(padded)
            .zip(src.as_slice().chunks_exact(n))
        {
            row[..n].copy_from_slice(src);
        }
    }
    pc.fill(T::zero());
    top(alg, pa, pb, pc, padded, cutoff, threads, scratch, stats);
    for (dst, src) in c.chunks_exact_mut(n).zip(pc.chunks_exact(padded)) {
        dst.copy_from_slice(&src[..n]);
    }
    scratch.padded = pads;
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

/// `c += a·b` on dense order-`n` (a power of two) operands: on the pool
/// when `threads > 1` and there is a level to split, else [`level`].
#[allow(clippy::too_many_arguments)]
fn top<T: Scalar>(
    alg: &Bilinear2x2,
    a: &[T],
    b: &[T],
    c: &mut [T],
    n: usize,
    cutoff: usize,
    threads: usize,
    scratch: &mut Scratch<T>,
    stats: &Stats,
) {
    let (view, below) = (View::dense(n), levels(n, cutoff));
    if threads <= 1 || below == 0 {
        let materialized = below.saturating_sub(FUSED_LEVELS);
        grow(&mut scratch.levels, materialized);
        let (levels, packs) = (&mut scratch.levels[..], &mut scratch.packs);
        let (a, b) = ((a, view), (b, view));
        return level(alg, a, b, (c, view), n, cutoff, 0, levels, packs, stats);
    }
    cancel::poll();
    stats.level(0, alg.t() as u64);
    let h = n / 2;
    grow(&mut scratch.products, alg.t());
    let products: Vec<(usize, &mut [T])> = scratch
        .products
        .iter_mut()
        .map(|p| p.at_least(h * h))
        .enumerate()
        .collect();
    // The workers' own triples: the top one holds their encodings (its
    // product buffer stays empty), the rest are the levels below.
    let deeper = levels(h, cutoff).saturating_sub(FUSED_LEVELS);
    let workers = grow(&mut scratch.workers, threads.min(alg.t()));
    for worker in workers.iter_mut() {
        grow(&mut worker.levels, 1 + deeper);
    }
    pool(workers, products, |worker, (r, p)| {
        let ([ea, eb, _], levels) = worker.levels.split_first_mut().expect("grown above");
        let ar = encode((a, view), h, &alg.u[r], ea.at_least(h * h));
        let br = encode((b, view), h, &alg.v[r], eb.at_least(h * h));
        p.fill(T::zero());
        let (p, packs) = ((p, View::dense(h)), &mut worker.packs);
        level(alg, ar, br, p, h, cutoff, 1, levels, packs, stats);
    });
    for (r, p) in scratch.products.iter().enumerate() {
        decode(p.get(h * h), h, |q| alg.w[q][r], (c, view));
    }
}

/// One operand of a level: a square block of a slice.
type Operand<'a, T> = (&'a [T], View);

/// `c += a·b` on order-`n` views: [`fused`] when at most
/// [`FUSED_LEVELS`] levels are left, else one level through the first
/// buffer triple of `triples` (the rest serve the levels below).
#[allow(clippy::too_many_arguments)]
fn level<T: Scalar>(
    alg: &Bilinear2x2,
    a: Operand<'_, T>,
    b: Operand<'_, T>,
    c: (&mut [T], View),
    n: usize,
    cutoff: usize,
    depth: usize,
    triples: &mut [[Buf<T>; 3]],
    packs: &mut Packs<T>,
    stats: &Stats,
) {
    let below = levels(n, cutoff);
    if below <= FUSED_LEVELS {
        return fused(alg, a, b, c, n, below, depth, packs, stats);
    }
    cancel::poll();
    stats.level(depth, alg.t() as u64);
    let h = n / 2;
    let ([ea, eb, p], deeper) = triples
        .split_first_mut()
        .expect("one buffer triple per materialized level");
    let (ea, eb, p) = (ea.at_least(h * h), eb.at_least(h * h), p.at_least(h * h));
    let (c, vc) = c;
    for r in 0..alg.t() {
        let ar = encode(a, h, &alg.u[r], ea);
        let br = encode(b, h, &alg.v[r], eb);
        p.fill(T::zero());
        let pv = (&mut *p, View::dense(h));
        level(alg, ar, br, pv, h, cutoff, depth + 1, deeper, packs, stats);
        decode(p, h, |q| alg.w[q][r], (&mut *c, vc));
    }
}

/// `Σ_q coefs[q] · quadrant q` of the order-`2h` operand: the quadrant
/// itself when the sum is one quadrant with coefficient 1, else added up
/// row by row into `buf` as a dense order-`h` block.
fn encode<'a, T: Scalar>(
    (src, view): Operand<'a, T>,
    h: usize,
    coefs: &[i64; 4],
    buf: &'a mut [T],
) -> Operand<'a, T> {
    let mut sum = Blocks::new(view.ld);
    for (q, &coef) in coefs.iter().enumerate() {
        if coef != 0 {
            sum.push(T::from_i64(coef), view.quadrant(q, h));
        }
    }
    if let Some(at) = sum.lone() {
        return (src, View { at, ld: view.ld });
    }
    let buf = &mut buf[..h * h];
    for (i, row) in buf.chunks_exact_mut(h).enumerate() {
        sum.sum_into(src, i * view.ld, row);
    }
    (buf, View::dense(h))
}

/// Add the dense order-`h` product `p`, times `coef(q)`, into each
/// quadrant `q` of C whose coefficient is nonzero, row by row.
fn decode<T: Scalar>(p: &[T], h: usize, coef: impl Fn(usize) -> i64, (c, vc): (&mut [T], View)) {
    let mut dst = Blocks::new(vc.ld);
    for q in 0..4 {
        if coef(q) != 0 {
            dst.push(T::from_i64(coef(q)), vc.quadrant(q, h));
        }
    }
    for (i, src) in p.chunks_exact(h).enumerate() {
        for &(w, at) in dst.terms() {
            let row = &mut c[at + i * vc.ld..][..h];
            for (d, &x) in row.iter_mut().zip(src) {
                *d += w * x;
            }
        }
    }
}

/// The bottom `levels` levels of `alg` on order-`n` operands as `t^levels`
/// leaf products of order `n / 2^levels`, each run by the classical loop
/// nest on weighted sums of blocks (zero levels: one classical leaf),
/// added into `c`.
#[allow(clippy::too_many_arguments)]
fn fused<T: Scalar>(
    alg: &Bilinear2x2,
    (a, va): Operand<'_, T>,
    (b, vb): Operand<'_, T>,
    (c, vc): (&mut [T], View),
    n: usize,
    levels: usize,
    depth: usize,
    packs: &mut Packs<T>,
    stats: &Stats,
) {
    let (h, t) = (n >> levels, alg.t());
    let leaves = t.pow(levels as u32);
    for level in 0..levels {
        stats.level(depth + level, t.pow(level as u32 + 1) as u64);
    }
    for leaf in 0..leaves {
        // The leaf's product index at each fused level, top first.
        let r = |level: usize| leaf / t.pow((levels - 1 - level) as u32) % t;
        let product = Product {
            a: kronecker(va, h, levels, |l, q| alg.u[r(l)][q]),
            b: kronecker(vb, h, levels, |l, q| alg.v[r(l)][q]),
            c: kronecker(vc, h, levels, |l, q| alg.w[q][r(l)]),
        };
        classical::gemm_block(a, b, c, &product, (h, h, h), packs, stats);
        stats.leaf();
    }
}

/// One block sum of a fused leaf: over every choice of a quadrant `q_l`
/// at each of the `levels` levels (the top level's choice varying
/// slowest), the order-`h` block those quadrants nest down to, weighted
/// by `Π coef(l, q_l)` and kept when that is nonzero.
fn kronecker<T: Scalar>(
    view: View,
    h: usize,
    levels: usize,
    coef: impl Fn(usize, usize) -> i64,
) -> Blocks<T> {
    let mut sum = Blocks::new(view.ld);
    for choice in 0..4usize.pow(levels as u32) {
        let (mut weight, mut i, mut j) = (1, 0, 0);
        for l in 0..levels {
            let q = choice >> (2 * (levels - 1 - l)) & 3;
            weight *= coef(l, q);
            (i, j) = (2 * i + q / 2, 2 * j + q % 2);
        }
        if weight != 0 {
            sum.push(T::from_i64(weight), view.at + (i * view.ld + j) * h);
        }
    }
    sum
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

    /// `a·b` through [`multiply`] on a fresh scratch.
    fn run<T: Scalar>(
        alg: &Bilinear2x2,
        a: &Matrix<T>,
        b: &Matrix<T>,
        cutoff: usize,
        threads: usize,
        stats: &Stats,
    ) -> Matrix<T> {
        let mut c = Matrix::zeros(a.rows(), a.rows());
        let mut scratch = Scratch::default();
        multiply(
            alg,
            a,
            b,
            c.as_mut_slice(),
            cutoff,
            threads,
            &mut scratch,
            stats,
        );
        c
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
                            run(alg, &a, &b, cutoff, threads, &stats),
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
            let _ = run(&alg, &a, &b, 4, 1, &stats);
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
            run(&catalog::strassen(), &a, &b, 16, 1, &stats),
            multiply_naive(&a, &b)
        );
    }
}
