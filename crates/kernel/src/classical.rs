//! Cache-blocked classical multiplication over contiguous packed panels.
//!
//! The loop nest is BLIS-shaped: for each `NC`-wide column slab of B and
//! each `KC`-deep slice of the shared dimension, pack the B tile
//! (`kc`×`nc`, gathered from strided rows into one contiguous buffer),
//! then for each `MC`-tall row panel of A pack the A tile (`mc`×`kc`,
//! row-major) and run the [`MR`]-row micro-kernel. The micro-kernel's
//! inner loop is a plain `c[j] += a·b[j]` sweep over four C rows at
//! once — independent accumulators per column, so LLVM autovectorizes it
//! for both `f64` and `i64` without any unsafe or intrinsics.
//!
//! [`fmm_faults::cancel::poll`] runs at every micro-tile boundary
//! (roughly `MR·KC·NC` scalar ops apart), which keeps served kernel jobs
//! responsive to deadlines even in debug builds.

use crate::{pool, Stats, KC, MC, MR, NC};
use fmm_faults::cancel;
use fmm_matrix::{Matrix, Scalar};
use std::time::Instant;

/// Cache-blocked classical multiply (rectangular shapes welcome); with
/// `threads > 1`, `MC`-row panels of C are the pool's work items.
pub(crate) fn multiply<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    threads: usize,
    stats: &Stats,
) -> Matrix<T> {
    assert_eq!(
        a.cols(),
        b.rows(),
        "dimension mismatch: {}x{} · {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    if m == 0 || k == 0 || n == 0 {
        return c;
    }
    let (a_data, b_data) = (a.as_slice(), b.as_slice());
    if threads <= 1 || m <= MC {
        gemm_block(a_data, b_data, c.as_mut_slice(), m, k, n, stats);
        return c;
    }
    // Each item is one MC-tall slab of C rows (disjoint &mut slices, so
    // workers write without synchronisation) plus its row offset into A.
    let panels = c
        .as_mut_slice()
        .chunks_mut(MC * n)
        .enumerate()
        .map(|(i, rows)| (i * MC, rows))
        .collect();
    pool(threads, panels, |(i0, c_rows): (usize, &mut [T])| {
        let mc = c_rows.len() / n;
        let a_rows = &a_data[i0 * k..(i0 + mc) * k];
        gemm_block(a_rows, b_data, c_rows, mc, k, n, stats);
    });
    c
}

/// Multiply the `m`×`k` row-major block `a` by the `k`×`n` row-major `b`
/// into the zero-initialised `m`×`n` row-major `c`.
pub(crate) fn gemm_block<T: Scalar>(
    a: &[T],
    b: &[T],
    c: &mut [T],
    m: usize,
    k: usize,
    n: usize,
    stats: &Stats,
) {
    let mut pa: Vec<T> = Vec::with_capacity(MC * KC);
    let mut pb: Vec<T> = Vec::with_capacity(KC * NC);
    let mut pack_ns = 0u64;
    let mut tiles = 0u64;
    for j0 in (0..n).step_by(NC) {
        let nc = NC.min(n - j0);
        for k0 in (0..k).step_by(KC) {
            let kc = KC.min(k - k0);
            let t = Instant::now();
            pb.clear();
            for kk in k0..k0 + kc {
                pb.extend_from_slice(&b[kk * n + j0..kk * n + j0 + nc]);
            }
            pack_ns += t.elapsed().as_nanos() as u64;
            for i0 in (0..m).step_by(MC) {
                let mc = MC.min(m - i0);
                let t = Instant::now();
                pa.clear();
                for ii in i0..i0 + mc {
                    pa.extend_from_slice(&a[ii * k + k0..ii * k + k0 + kc]);
                }
                pack_ns += t.elapsed().as_nanos() as u64;
                let mut c_rows: Vec<&mut [T]> = c[i0 * n..(i0 + mc) * n]
                    .chunks_mut(n)
                    .map(|row| &mut row[j0..j0 + nc])
                    .collect();
                for (g, group) in c_rows.chunks_mut(MR).enumerate() {
                    cancel::poll();
                    let pa_rows = &pa[g * MR * kc..];
                    match group {
                        [c0, c1, c2, c3] => micro_4(pa_rows, kc, &pb, nc, c0, c1, c2, c3),
                        rest => {
                            for (r, row) in rest.iter_mut().enumerate() {
                                micro_1(&pa_rows[r * kc..(r + 1) * kc], &pb, nc, row);
                            }
                        }
                    }
                    tiles += 1;
                }
            }
        }
    }
    stats.pack(pack_ns);
    stats.tiles(tiles);
}

/// The register-tiled heart: four C rows accumulate against one packed B
/// panel. Slicing every row to exactly `nc` up front lets the compiler
/// drop the bounds checks and vectorize the `j` loop.
#[inline]
#[allow(clippy::too_many_arguments)]
fn micro_4<T: Scalar>(
    pa: &[T],
    kc: usize,
    pb: &[T],
    nc: usize,
    c0: &mut [T],
    c1: &mut [T],
    c2: &mut [T],
    c3: &mut [T],
) {
    let c0 = &mut c0[..nc];
    let c1 = &mut c1[..nc];
    let c2 = &mut c2[..nc];
    let c3 = &mut c3[..nc];
    for kk in 0..kc {
        let b_row = &pb[kk * nc..kk * nc + nc];
        let a0 = pa[kk];
        let a1 = pa[kc + kk];
        let a2 = pa[2 * kc + kk];
        let a3 = pa[3 * kc + kk];
        for j in 0..nc {
            let bv = b_row[j];
            c0[j] += a0 * bv;
            c1[j] += a1 * bv;
            c2[j] += a2 * bv;
            c3[j] += a3 * bv;
        }
    }
}

/// Remainder rows (fewer than [`MR`] left in the panel).
#[inline]
fn micro_1<T: Scalar>(pa_row: &[T], pb: &[T], nc: usize, c: &mut [T]) {
    let c = &mut c[..nc];
    for (kk, &av) in pa_row.iter().enumerate() {
        let b_row = &pb[kk * nc..kk * nc + nc];
        for j in 0..nc {
            c[j] += av * b_row[j];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_matrix::multiply::multiply_naive;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random(r: usize, c: usize, seed: u64) -> Matrix<i64> {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::<i64>::random_small(r, c, &mut rng)
    }

    fn tiled<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, threads: usize) -> Matrix<T> {
        multiply(a, b, threads, &Stats::default())
    }

    #[test]
    fn rectangular_and_remainder_shapes_match_naive() {
        // Shapes chosen to hit every remainder path: rows not a multiple
        // of MR or MC, cols straddling NC, depth straddling KC.
        for (m, k, n) in [(1, 1, 1), (5, 3, 7), (66, 257, 130), (3, 300, 2)] {
            let a = random(m, k, 11);
            let b = random(k, n, 12);
            assert_eq!(tiled(&a, &b, 1), multiply_naive(&a, &b), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn threaded_variant_matches_sequential() {
        let a = random(150, 70, 21);
        let b = random(70, 90, 22);
        let reference = tiled(&a, &b, 1);
        for threads in [2, 4, 9] {
            assert_eq!(tiled(&a, &b, threads), reference);
        }
    }

    #[test]
    fn f64_small_integer_entries_are_exact() {
        let mut rng = StdRng::seed_from_u64(5);
        let a = Matrix::<f64>::random_small(40, 33, &mut rng);
        let b = Matrix::<f64>::random_small(33, 51, &mut rng);
        // Products of entries in [-9, 9] summed over ≤ 33 terms are
        // exactly representable, so even f64 agreement is equality here.
        assert_eq!(tiled(&a, &b, 1), multiply_naive(&a, &b));
    }

    #[test]
    fn empty_dimension_yields_the_zero_shape() {
        let a = Matrix::<i64>::zeros(4, 4);
        let b = Matrix::<i64>::zeros(4, 4);
        assert_eq!(tiled(&a, &b, 1), Matrix::zeros(4, 4));
    }
}
