//! Cache-blocked classical multiplication over contiguous packed panels.
//!
//! The loop nest is BLIS-shaped: for each `NC`-wide column slab of B and
//! each `KC`-deep slice of the shared dimension, pack the B tile into
//! `kc`×[`NR`] column micro-panels, then for each `MC`-tall row panel of
//! A pack the A tile into `kc`×[`MR`] row strips, and run the register
//! tiled micro-kernel on every (strip, micro-panel) pair: one
//! [`MR`]×[`NR`] tile of C held in registers for the whole `kc` sweep.
//!
//! Two micro-kernels compute that tile. The portable one is plain generic
//! Rust over a `[[T; NR]; MR]` accumulator; it runs for `i64` and every
//! other [`Scalar`], and it is the oracle the tests hold the other to.
//! For `f64` on an x86-64 CPU with AVX2 and FMA (checked at run time with
//! `is_x86_feature_detected!`, no build flag), a `std::arch` kernel keeps
//! the tile in eight 4-lane registers and uses fused multiply-adds; the
//! module's only `unsafe` code is that kernel and the `T` → `f64` slice
//! cast that selects it.
//!
//! Rounding: a fused multiply-add rounds once where the portable
//! `c += a·b` rounds twice. Small-integer operands, whose products and
//! partial sums are exact in `f64` (every benchmark, golden and checksum
//! in this workspace), give identical results on both kernels; general
//! `f64` results may differ from `multiply_naive` in the last bits.
//!
//! [`fmm_faults::cancel::poll`] runs once per `MR`-row group of a packed
//! block (roughly `MR·KC·NC` scalar ops apart), which keeps served kernel
//! jobs responsive to deadlines even in debug builds.

use crate::{pool, Stats, KC, MC, MR, NC};
use fmm_faults::cancel;
use fmm_matrix::{Matrix, Scalar};
#[cfg(target_arch = "x86_64")]
use std::any::TypeId;
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

/// Columns the micro-kernel computes at once: with [`MR`] rows, an
/// `MR`×`NR` tile of C lives in registers across the whole `kc` sweep.
const NR: usize = 8;

/// One `MR`×`NR` tile of C, held while the micro-kernel runs.
type Tile<T> = [[T; NR]; MR];

/// Multiply the `m`×`k` row-major block `a` by the `k`×`n` row-major `b`
/// into the zero-initialised `m`×`n` row-major `c`.
///
/// `f64` on an x86-64 CPU with AVX2 and FMA runs the fused kernel
/// ([`fma::micro`]); every other scalar type and CPU runs the portable
/// [`micro`].
pub(crate) fn gemm_block<T: Scalar>(
    a: &[T],
    b: &[T],
    c: &mut [T],
    m: usize,
    k: usize,
    n: usize,
    stats: &Stats,
) {
    #[cfg(target_arch = "x86_64")]
    if TypeId::of::<T>() == TypeId::of::<f64>() && fma::available() {
        // SAFETY: `T` is `f64` (the `TypeId`s are equal), so each slice
        // is reinterpreted as itself: same address, length and layout.
        let (a, b, c) = unsafe {
            (
                std::slice::from_raw_parts(a.as_ptr().cast::<f64>(), a.len()),
                std::slice::from_raw_parts(b.as_ptr().cast::<f64>(), b.len()),
                std::slice::from_raw_parts_mut(c.as_mut_ptr().cast::<f64>(), c.len()),
            )
        };
        // SAFETY: `fma::available()` just confirmed AVX2 and FMA.
        let kernel = |kc, pa: &[f64], pb: &[f64], acc: &mut Tile<f64>| unsafe {
            fma::micro(kc, pa, pb, acc)
        };
        return blocked(a, b, c, m, k, n, stats, kernel);
    }
    blocked(a, b, c, m, k, n, stats, micro::<T>);
}

/// Which micro-kernel `f64` multiplies run on this CPU: `"avx2+fma"`
/// (the fused x86-64 kernel, picked at run time) or `"portable"`. Every
/// other scalar type always runs the portable kernel.
pub fn f64_kernel_isa() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if fma::available() {
        return "avx2+fma";
    }
    "portable"
}

/// The BLIS-shaped loop nest of [`gemm_block`] around one micro-kernel.
///
/// B is packed into `kc`×[`NR`] column micro-panels
/// (`pb[(p·kc + k)·NR + j]`) and A into `kc`×[`MR`] row strips
/// interleaved per `k` (`pa[(q·kc + k)·MR + r]`), both zero-padded at
/// ragged edges. Each tile of C is loaded into a [`Tile`], accumulated
/// over the whole `kc` sweep, and written back, so the kernel never
/// touches C out of bounds and the summation order over `k` is the
/// plain `c += a·b` one.
#[allow(clippy::too_many_arguments)]
fn blocked<T: Scalar>(
    a: &[T],
    b: &[T],
    c: &mut [T],
    m: usize,
    k: usize,
    n: usize,
    stats: &Stats,
    kernel: impl Fn(usize, &[T], &[T], &mut Tile<T>),
) {
    let zero = T::zero();
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
            for p0 in (0..nc).step_by(NR) {
                let nr = NR.min(nc - p0);
                for kk in k0..k0 + kc {
                    let row = kk * n + j0 + p0;
                    pb.extend_from_slice(&b[row..row + nr]);
                    pb.resize(pb.len() + NR - nr, zero);
                }
            }
            pack_ns += t.elapsed().as_nanos() as u64;
            for i0 in (0..m).step_by(MC) {
                let mc = MC.min(m - i0);
                let t = Instant::now();
                pa.clear();
                for q0 in (i0..i0 + mc).step_by(MR) {
                    let mr = MR.min(i0 + mc - q0);
                    for kk in k0..k0 + kc {
                        pa.extend((q0..q0 + mr).map(|ii| a[ii * k + kk]));
                        pa.resize(pa.len() + MR - mr, zero);
                    }
                }
                pack_ns += t.elapsed().as_nanos() as u64;
                for (strip, q0) in pa.chunks_exact(kc * MR).zip((i0..i0 + mc).step_by(MR)) {
                    cancel::poll();
                    let mr = MR.min(i0 + mc - q0);
                    for (panel, p0) in pb.chunks_exact(kc * NR).zip((0..nc).step_by(NR)) {
                        let nr = NR.min(nc - p0);
                        let mut acc = [[zero; NR]; MR];
                        for (r, acc_row) in acc.iter_mut().take(mr).enumerate() {
                            let at = (q0 + r) * n + j0 + p0;
                            acc_row[..nr].copy_from_slice(&c[at..at + nr]);
                        }
                        kernel(kc, strip, panel, &mut acc);
                        for (r, acc_row) in acc.iter().take(mr).enumerate() {
                            let at = (q0 + r) * n + j0 + p0;
                            c[at..at + nr].copy_from_slice(&acc_row[..nr]);
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

/// The portable micro-kernel, and the oracle for [`fma::micro`]:
/// `acc += strip · panel` over `kc` steps of one packed A strip and one
/// packed B micro-panel, one `a·b` product added per term.
#[inline]
fn micro<T: Scalar>(kc: usize, pa: &[T], pb: &[T], acc: &mut Tile<T>) {
    let mut tile = *acc;
    for (a, b) in pa[..kc * MR]
        .chunks_exact(MR)
        .zip(pb[..kc * NR].chunks_exact(NR))
    {
        for (row, &av) in tile.iter_mut().zip(a) {
            for (cv, &bv) in row.iter_mut().zip(b) {
                *cv += av * bv;
            }
        }
    }
    *acc = tile;
}

/// The `f64` micro-kernel on AVX2 + FMA: the 4×8 tile is eight 4-lane
/// registers, and each `k` step is two B loads, four A broadcasts and
/// eight fused multiply-adds (rounding contract: see the module doc).
#[cfg(target_arch = "x86_64")]
mod fma {
    use super::{Tile, MR, NR};
    use std::arch::x86_64::*;

    /// Whether this CPU can run [`micro`] (the answer is cached by std).
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }

    /// `acc += strip · panel`, as the portable `micro` computes it but
    /// with fused multiply-adds.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA ([`available`]).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn micro(kc: usize, pa: &[f64], pb: &[f64], acc: &mut Tile<f64>) {
        assert!(
            pa.len() >= kc * MR && pb.len() >= kc * NR,
            "packed panels shorter than kc"
        );
        let (mut a, mut b) = (pa.as_ptr(), pb.as_ptr());
        // SAFETY: every row of `acc` holds NR = 8 f64s, so both 4-lane
        // loads (and the stores below) stay inside it; the feature
        // requirement is this function's own.
        let [mut c00, mut c01, mut c10, mut c11, mut c20, mut c21, mut c30, mut c31] = unsafe {
            [
                _mm256_loadu_pd(acc[0].as_ptr()),
                _mm256_loadu_pd(acc[0].as_ptr().add(4)),
                _mm256_loadu_pd(acc[1].as_ptr()),
                _mm256_loadu_pd(acc[1].as_ptr().add(4)),
                _mm256_loadu_pd(acc[2].as_ptr()),
                _mm256_loadu_pd(acc[2].as_ptr().add(4)),
                _mm256_loadu_pd(acc[3].as_ptr()),
                _mm256_loadu_pd(acc[3].as_ptr().add(4)),
            ]
        };
        for _ in 0..kc {
            // SAFETY: the assert above gives `kc` steps of MR A values
            // and NR B values; `a` and `b` advance by exactly one step
            // per iteration, so every read is inside `pa` / `pb`.
            unsafe {
                let b0 = _mm256_loadu_pd(b);
                let b1 = _mm256_loadu_pd(b.add(4));
                let a0 = _mm256_broadcast_sd(&*a);
                c00 = _mm256_fmadd_pd(a0, b0, c00);
                c01 = _mm256_fmadd_pd(a0, b1, c01);
                let a1 = _mm256_broadcast_sd(&*a.add(1));
                c10 = _mm256_fmadd_pd(a1, b0, c10);
                c11 = _mm256_fmadd_pd(a1, b1, c11);
                let a2 = _mm256_broadcast_sd(&*a.add(2));
                c20 = _mm256_fmadd_pd(a2, b0, c20);
                c21 = _mm256_fmadd_pd(a2, b1, c21);
                let a3 = _mm256_broadcast_sd(&*a.add(3));
                c30 = _mm256_fmadd_pd(a3, b0, c30);
                c31 = _mm256_fmadd_pd(a3, b1, c31);
                a = a.add(MR);
                b = b.add(NR);
            }
        }
        // SAFETY: as for the loads above.
        unsafe {
            _mm256_storeu_pd(acc[0].as_mut_ptr(), c00);
            _mm256_storeu_pd(acc[0].as_mut_ptr().add(4), c01);
            _mm256_storeu_pd(acc[1].as_mut_ptr(), c10);
            _mm256_storeu_pd(acc[1].as_mut_ptr().add(4), c11);
            _mm256_storeu_pd(acc[2].as_mut_ptr(), c20);
            _mm256_storeu_pd(acc[2].as_mut_ptr().add(4), c21);
            _mm256_storeu_pd(acc[3].as_mut_ptr(), c30);
            _mm256_storeu_pd(acc[3].as_mut_ptr().add(4), c31);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_matrix::multiply::multiply_naive;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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
        // Products of entries in [-9, 9] summed over ≤ 257 terms are
        // exactly representable, so even f64 agreement (on either micro-
        // kernel) is equality here. 66×257×130 crosses every tile edge:
        // MR and NR remainders, MC + 2 rows, KC + 1 depth.
        for (m, k, n) in [(40, 33, 51), (66, 257, 130)] {
            let a = Matrix::<f64>::random_small(m, k, &mut rng);
            let b = Matrix::<f64>::random_small(k, n, &mut rng);
            assert_eq!(tiled(&a, &b, 1), multiply_naive(&a, &b), "{m}x{k}x{n}");
        }
    }

    /// Random packed panels for one `kc`-deep tile, plus a random
    /// starting tile: small integers when `ints`, else uniform in
    /// [-1, 1).
    fn panels(kc: usize, ints: bool, seed: u64) -> (Vec<f64>, Vec<f64>, Tile<f64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut draw = || {
            if ints {
                rng.gen_range(-9i64..=9) as f64
            } else {
                rng.gen_range(-1_000_000i64..1_000_000) as f64 / 1e6 + 1e-7 / 3.0
            }
        };
        let pa = (0..kc * MR).map(|_| draw()).collect();
        let pb = (0..kc * NR).map(|_| draw()).collect();
        let mut acc = [[0.0; NR]; MR];
        for v in acc.iter_mut().flatten() {
            *v = draw();
        }
        (pa, pb, acc)
    }

    /// The portable kernel against a scalar dot product, then the fused
    /// kernel against the portable one on the same packed panels.
    #[test]
    fn micro_kernels_agree_on_the_same_panels() {
        for kc in [1, 7, 64, KC] {
            for ints in [true, false] {
                let (pa, pb, start) = panels(kc, ints, 100 + kc as u64);
                let mut portable = start;
                micro(kc, &pa, &pb, &mut portable);
                let term = |r: usize, j: usize, k: usize| pa[k * MR + r] * pb[k * NR + j];
                if ints {
                    for r in 0..MR {
                        for j in 0..NR {
                            let want = start[r][j] + (0..kc).map(|k| term(r, j, k)).sum::<f64>();
                            assert_eq!(portable[r][j], want, "kc={kc} ({r}, {j})");
                        }
                    }
                }
                #[cfg(target_arch = "x86_64")]
                if fma::available() {
                    let mut fused = start;
                    // SAFETY: `fma::available()` confirmed AVX2 and FMA.
                    unsafe { fma::micro(kc, &pa, &pb, &mut fused) };
                    for r in 0..MR {
                        for j in 0..NR {
                            let (p, f) = (portable[r][j], fused[r][j]);
                            // Each of the kc steps rounds at most twice, by
                            // half an ulp of a partial sum no larger than
                            // the sum of |terms|; integers round never.
                            let mass = start[r][j].abs()
                                + (0..kc).map(|k| term(r, j, k).abs()).sum::<f64>();
                            let tol = if ints {
                                0.0
                            } else {
                                2.0 * kc as f64 * f64::EPSILON * mass
                            };
                            assert!(
                                (p - f).abs() <= tol,
                                "kc={kc} ints={ints} ({r}, {j}): {p} vs {f}"
                            );
                        }
                    }
                    continue;
                }
                eprintln!("skipped: this CPU lacks AVX2+FMA, so only the portable kernel ran");
            }
        }
    }

    #[test]
    fn empty_dimension_yields_the_zero_shape() {
        let a = Matrix::<i64>::zeros(4, 4);
        let b = Matrix::<i64>::zeros(4, 4);
        assert_eq!(tiled(&a, &b, 1), Matrix::zeros(4, 4));
    }
}
