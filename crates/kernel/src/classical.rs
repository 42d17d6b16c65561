//! Cache-blocked classical multiplication over contiguous packed panels.
//!
//! The loop nest ([`blocked`]) is BLIS-shaped and generic over the
//! register tile `MR`×`NR`: for each `NC`-wide column slab of B and each
//! `KC`-deep slice of the shared dimension, pack the B tile into
//! `kc`×`NR` column micro-panels, then for each `MC`-tall row panel of A
//! pack the A tile into `MR`×`kc` row strips, and run the micro-kernel on
//! every (strip, micro-panel) pair: one `MR`×`NR` tile of C held in
//! registers for the whole `kc` sweep.
//!
//! The nest runs one [`Product`]: `Σ C-blocks += (Σ A-blocks)(Σ B-blocks)`
//! over weighted sums of equally shaped blocks. A classical multiply is
//! the one-term case. A fused Strassen leaf (`crate::fast`) lists the
//! blocks its encoded operands are made of and the C blocks its product
//! decodes into: packing adds up the operand sums, and the C-tile store
//! adds the tile into every destination, so no encoded operand or product
//! is ever stored.
//!
//! Three micro-kernels run through that one nest:
//!
//! * the portable 4×8 ([`micro`]), plain generic Rust over a
//!   `[[T; 8]; 4]` accumulator; it runs for `i64` and every other
//!   [`Scalar`], and it is the oracle the tests hold the others to;
//! * for `f64` on an x86-64 CPU with AVX2 and FMA, a 4×8 `std::arch`
//!   kernel ([`avx2::micro`]): eight 4-lane accumulators, two B loads and
//!   four broadcasts per `k`;
//! * for `f64` on an x86-64 CPU with AVX-512F, an 8×16 `std::arch` kernel
//!   ([`avx512::micro`]): sixteen 8-lane accumulators, two B loads and
//!   eight broadcasts per `k`. Every power-of-two order ≥ 16 tiles
//!   exactly, the 64×64 Strassen leaves included.
//!
//! [`gemm_block`] picks the fastest kernel this CPU runs, checked at run
//! time with `is_x86_feature_detected!` (no build flag): AVX-512F, then
//! AVX2+FMA, then portable. Each `std::arch` kernel comes with a copy of
//! the nest compiled for its features (`avx512::gemm`, `avx2::gemm`), so
//! the packing sums and C-tile additions vectorise at the kernel's width.
//! The module's only `unsafe` code is those two kernels, their nests, and
//! the `T` → `f64` cast that selects them.
//!
//! Rounding: a fused multiply-add rounds once where the portable
//! `c += a·b` rounds twice. Both fused kernels compute
//! `c = fma(a_k, b_k, c)` in ascending `k` from the same starting C, so
//! they agree bit for bit on any `f64` input. Small-integer operands,
//! whose products and partial sums are exact in `f64` (every benchmark,
//! golden and checksum in this workspace), give identical results on all
//! three kernels; general `f64` results may differ from `multiply_naive`
//! in the last bits. A one-term product does no arithmetic outside the
//! kernel, so classical results depend on the kernel alone.
//!
//! [`fmm_faults::cancel::poll`] runs once per packed A strip (roughly
//! `MR·KC·NC` scalar ops apart), which keeps served kernel jobs
//! responsive to deadlines even in debug builds. [`Report::micro_tiles`]
//! counts [`MR`]-row units (`ceil(rows / MR)` per strip), so it reads the
//! same whichever kernel ran.
//!
//! [`Report::micro_tiles`]: crate::Report::micro_tiles

use crate::{grow, pool, Buf, Scratch, Stats, KC, MC, MR, NC};
use fmm_faults::cancel;
use fmm_matrix::{Matrix, Scalar};
#[cfg(target_arch = "x86_64")]
use std::any::TypeId;
use std::time::Instant;

/// Cache-blocked classical `c = a·b` (rectangular shapes welcome) into
/// `c`, which must hold the zeroed row-major `a.rows()`×`b.cols()`
/// product; with `threads > 1`, `MC`-row panels of C are the pool's work
/// items, each worker packing into its own [`Scratch`].
pub(crate) fn multiply<T: Scalar>(
    a: &Matrix<T>,
    b: &Matrix<T>,
    c: &mut [T],
    threads: usize,
    scratch: &mut Scratch<T>,
    stats: &Stats,
) {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    debug_assert_eq!(c.len(), m * n, "C must be the product's shape");
    if m == 0 || k == 0 || n == 0 {
        return;
    }
    let (a_data, b_data) = (a.as_slice(), b.as_slice());
    let product = Product::plain(k, n);
    if threads <= 1 || m <= MC {
        gemm_block(
            a_data,
            b_data,
            c,
            &product,
            (m, k, n),
            &mut scratch.packs,
            stats,
        );
        return;
    }
    // Each item is one MC-tall slab of C rows (disjoint &mut slices, so
    // workers write without synchronisation) plus its row offset into A.
    let panels: Vec<_> = c
        .chunks_mut(MC * n)
        .enumerate()
        .map(|(i, rows)| (i * MC, rows))
        .collect();
    let workers = grow(&mut scratch.workers, threads.min(panels.len()));
    pool(workers, panels, |worker, (i0, c_rows)| {
        let mc = c_rows.len() / n;
        let a_rows = &a_data[i0 * k..(i0 + mc) * k];
        let packs = &mut worker.packs;
        gemm_block(a_rows, b_data, c_rows, &product, (mc, k, n), packs, stats);
    });
}

/// Terms a [`Blocks`] sum holds at most: each row of a 2×2 algorithm's
/// coefficients names at most the four quadrants, so a sum over the fused
/// levels' Kronecker power has at most `4^FUSED_LEVELS` terms.
const MAX_TERMS: usize = 4usize.pow(crate::fast::FUSED_LEVELS as u32);

/// A weighted sum `Σ coef · block` of equally shaped blocks of one
/// row-major matrix whose rows are `ld` elements apart. Each term names
/// its block by the offset of the block's first element. The terms live
/// inline (at most [`MAX_TERMS`]), so building a sum allocates nothing.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Blocks<T> {
    pub(crate) ld: usize,
    len: usize,
    terms: [(T, usize); MAX_TERMS],
}

impl<T: Scalar> Blocks<T> {
    /// The empty sum over a matrix whose rows are `ld` apart.
    pub(crate) fn new(ld: usize) -> Blocks<T> {
        Blocks {
            ld,
            len: 0,
            terms: [(T::zero(), 0); MAX_TERMS],
        }
    }

    /// The whole matrix as one block.
    fn whole(ld: usize) -> Blocks<T> {
        let mut sum = Blocks::new(ld);
        sum.push(T::one(), 0);
        sum
    }

    /// Add the term `coef · (the block at offset)`.
    pub(crate) fn push(&mut self, coef: T, offset: usize) {
        assert!(
            self.len < MAX_TERMS,
            "a block sum holds at most {MAX_TERMS} terms"
        );
        self.terms[self.len] = (coef, offset);
        self.len += 1;
    }

    pub(crate) fn terms(&self) -> &[(T, usize)] {
        &self.terms[..self.len]
    }

    /// The block's offset when the sum is one block with coefficient 1.
    pub(crate) fn lone(&self) -> Option<usize> {
        match *self.terms() {
            [(coef, offset)] if coef == T::one() => Some(offset),
            _ => None,
        }
    }

    /// `dst.len()` elements of the sum from `at` (an offset within each
    /// block, `row · ld + col`) of `data`, written to `dst` in one
    /// contiguous pass per term.
    pub(crate) fn sum_into(&self, data: &[T], at: usize, dst: &mut [T]) {
        let len = dst.len();
        let ((first, offset), rest) = self.terms().split_first().expect("a sum has terms");
        let src = &data[offset + at..][..len];
        match *first == T::one() {
            true => dst.copy_from_slice(src),
            false => {
                for (d, &x) in dst.iter_mut().zip(src) {
                    *d = *first * x;
                }
            }
        }
        for &(coef, offset) in rest {
            for (d, &x) in dst.iter_mut().zip(&data[offset + at..][..len]) {
                *d += coef * x;
            }
        }
    }

    /// `len` elements of the sum from `at`, borrowed from `data` when the
    /// sum is [`lone`](Self::lone), else added up into `scratch`.
    fn row<'s>(&self, data: &'s [T], at: usize, len: usize, scratch: &'s mut [T]) -> &'s [T] {
        if let Some(offset) = self.lone() {
            return &data[offset + at..][..len];
        }
        self.sum_into(data, at, &mut scratch[..len]);
        &scratch[..len]
    }
}

/// One product of the loop nest: `Σ c-blocks += (Σ a-blocks)·(Σ b-blocks)`,
/// every block sum a [`Blocks`]. A classical multiply is the one-term
/// product [`Product::plain`]; each leaf of the fused Strassen recursion
/// lists its encoded A and B blocks and the C blocks it decodes into.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Product<T> {
    pub(crate) a: Blocks<T>,
    pub(crate) b: Blocks<T>,
    pub(crate) c: Blocks<T>,
}

impl<T: Scalar> Product<T> {
    /// `C += A·B` for row-major `A` (`k` columns), `B` and `C` (`n`
    /// columns each).
    pub(crate) fn plain(k: usize, n: usize) -> Product<T> {
        Product {
            a: Blocks::whole(k),
            b: Blocks::whole(n),
            c: Blocks::whole(n),
        }
    }
}

/// The loop nest's only buffers: the packed A strips and B micro-panels,
/// and the scratch row a weighted sum of B rows is added up in. They grow
/// to the largest product they have served and never shrink, so a fused
/// recursion reuses one set across all its leaves, and a [`Workspace`]
/// across all its multiplies.
///
/// [`Workspace`]: crate::Workspace
pub(crate) struct Packs<T> {
    a: Buf<T>,
    b: Buf<T>,
    row: Buf<T>,
}

impl<T> Default for Packs<T> {
    fn default() -> Packs<T> {
        Packs {
            a: Buf::default(),
            b: Buf::default(),
            row: Buf::default(),
        }
    }
}

impl<T> Packs<T> {
    /// The three buffers, for tests that check they are reused.
    #[cfg(test)]
    pub(crate) fn buffers(&self) -> [&Buf<T>; 3] {
        [&self.a, &self.b, &self.row]
    }
}

/// Columns of the portable and AVX2 tiles (their rows are [`MR`]).
const NR: usize = 8;

/// Every `f64` micro-kernel by name, in the order `gemm_block` prefers
/// them: the first one this CPU runs is [`f64_kernel_isa`], so every
/// kernel listed before it is one the CPU lacks.
pub const F64_KERNELS: [&str; 3] = ["avx512f", "avx2+fma", "portable"];

/// The `f64` micro-kernels, in [`F64_KERNELS`] order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Isa {
    Avx512,
    Avx2,
    Portable,
}

impl Isa {
    const ALL: [Isa; 3] = [Isa::Avx512, Isa::Avx2, Isa::Portable];

    fn name(self) -> &'static str {
        F64_KERNELS[self as usize]
    }

    /// Whether this CPU can run the kernel (std caches the answer).
    fn available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => avx512::available(),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => avx2::available(),
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx512 | Isa::Avx2 => false,
            Isa::Portable => true,
        }
    }

    /// The first kernel in [`F64_KERNELS`] order this CPU can run.
    fn best() -> Isa {
        Isa::ALL
            .into_iter()
            .find(|isa| isa.available())
            .unwrap_or(Isa::Portable)
    }
}

/// Which micro-kernel `f64` multiplies run on this CPU: `"avx512f"`,
/// `"avx2+fma"` (both picked at run time) or `"portable"`. Every other
/// scalar type always runs the portable kernel.
pub fn f64_kernel_isa() -> &'static str {
    Isa::best().name()
}

/// Run `product` over the row-major matrices `a`, `b` and `c`, each
/// block of it `m`×`k`, `k`×`n` and `m`×`n` (`shape`), on the fastest
/// kernel this CPU runs for `T`.
pub(crate) fn gemm_block<T: Scalar>(
    a: &[T],
    b: &[T],
    c: &mut [T],
    product: &Product<T>,
    shape: (usize, usize, usize),
    packs: &mut Packs<T>,
    stats: &Stats,
) {
    gemm_block_on(Isa::best(), a, b, c, product, shape, packs, stats);
}

/// [`gemm_block`] on a chosen `f64` kernel, which the tests use to run
/// each kernel this CPU has. Scalars other than `f64` run the portable
/// kernel whatever `isa` says. Panics if the CPU cannot run `isa`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_block_on<T: Scalar>(
    isa: Isa,
    a: &[T],
    b: &[T],
    c: &mut [T],
    product: &Product<T>,
    shape: (usize, usize, usize),
    packs: &mut Packs<T>,
    stats: &Stats,
) {
    assert!(
        isa.available(),
        "this CPU cannot run the {} kernel",
        isa.name()
    );
    #[cfg(target_arch = "x86_64")]
    if isa != Isa::Portable && TypeId::of::<T>() == TypeId::of::<f64>() {
        // SAFETY: `T` is `f64` (the `TypeId`s are equal), so each slice,
        // the product's coefficients and the buffers are reinterpreted as
        // themselves: same addresses, lengths and layouts.
        let (a, b, c, product, packs) = unsafe {
            (
                std::slice::from_raw_parts(a.as_ptr().cast::<f64>(), a.len()),
                std::slice::from_raw_parts(b.as_ptr().cast::<f64>(), b.len()),
                std::slice::from_raw_parts_mut(c.as_mut_ptr().cast::<f64>(), c.len()),
                &*(product as *const Product<T>).cast::<Product<f64>>(),
                &mut *(packs as *mut Packs<T>).cast::<Packs<f64>>(),
            )
        };
        // SAFETY (both calls): the assert above confirmed the CPU runs
        // `isa`'s features.
        return unsafe {
            match isa {
                Isa::Avx512 => avx512::gemm(a, b, c, product, shape, packs, stats),
                _ => avx2::gemm(a, b, c, product, shape, packs, stats),
            }
        };
    }
    blocked::<T, MR, NR>(a, b, c, product, shape, packs, stats, micro::<T, MR, NR>);
}

/// The BLIS-shaped loop nest of [`gemm_block`] around one `MR`×`NR`
/// micro-kernel.
///
/// B is packed into `kc`×`NR` column micro-panels
/// (`pb[(p·kc + k)·NR + j]`) and A into `MR`×`kc` row strips kept row
/// by row (`pa[(q·MR + r)·kc + k]`), both zero-padded at ragged edges.
/// Packing reads and writes every row of the product's A and B sums
/// contiguously: an A row is added up straight into its strip, and a B
/// row in the scratch before it is dealt out to the micro-panels. The
/// additions of a fused Strassen leaf are therefore timed as packing.
///
/// A lone C block keeps the classical order: each tile of C is loaded
/// into an `[[T; NR]; MR]` accumulator, swept over the whole `kc`, and
/// written back, so the summation order over `k` is ascending on every
/// kernel. For a sum of C blocks the tile starts at zero and is added,
/// times its coefficient, into every block. Either way the kernel never
/// touches C out of bounds. The packing buffers grow to this product's
/// largest block: a 64×64 Strassen leaf packs 64 KiB of `f64`, not a
/// full `MC`×`KC` plus `KC`×`NC` pair (1.1 MiB).
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn blocked<T: Scalar, const MR: usize, const NR: usize>(
    a: &[T],
    b: &[T],
    c: &mut [T],
    product: &Product<T>,
    (m, k, n): (usize, usize, usize),
    packs: &mut Packs<T>,
    stats: &Stats,
    kernel: impl Fn(usize, &[T], &[T], &mut [[T; NR]; MR]),
) {
    let zero = T::zero();
    let kc_max = KC.min(k);
    let nc_max = NC.min(n);
    let pa = packs.a.at_least(MC.min(m).next_multiple_of(MR) * kc_max);
    let pb = packs.b.at_least(nc_max.next_multiple_of(NR) * kc_max);
    let scratch = packs.row.at_least(nc_max);
    let Product {
        a: sa,
        b: sb,
        c: sc,
    } = product;
    let lone_c = sc.lone();
    let mut pack_ns = 0u64;
    let mut tiles = 0u64;
    for j0 in (0..n).step_by(NC) {
        let nc = NC.min(n - j0);
        for k0 in (0..k).step_by(KC) {
            let kc = KC.min(k - k0);
            let t = Instant::now();
            let pb = &mut pb[..nc.next_multiple_of(NR) * kc];
            for kk in 0..kc {
                let row = sb.row(b, (k0 + kk) * sb.ld + j0, nc, scratch);
                let (full, ragged) = row.as_chunks::<NR>();
                let mut steps = pb.as_chunks_mut::<NR>().0.iter_mut().skip(kk).step_by(kc);
                // `full` leads the zip, so `steps` stops at the ragged panel.
                for (src, dst) in full.iter().zip(steps.by_ref()) {
                    *dst = *src;
                }
                if let Some(dst) = steps.next() {
                    dst[..ragged.len()].copy_from_slice(ragged);
                    dst[ragged.len()..].fill(zero);
                }
            }
            pack_ns += t.elapsed().as_nanos() as u64;
            for i0 in (0..m).step_by(MC) {
                let mc = MC.min(m - i0);
                let t = Instant::now();
                let pa = &mut pa[..mc.next_multiple_of(MR) * kc];
                for (strip, q0) in pa.chunks_exact_mut(kc * MR).zip((i0..i0 + mc).step_by(MR)) {
                    let mr = MR.min(i0 + mc - q0);
                    for (r, row) in strip.chunks_exact_mut(kc).enumerate() {
                        match r < mr {
                            true => sa.sum_into(a, (q0 + r) * sa.ld + k0, row),
                            // Rows past a ragged edge pack as zeros.
                            false => row.fill(zero),
                        }
                    }
                }
                pack_ns += t.elapsed().as_nanos() as u64;
                for (strip, q0) in pa.chunks_exact(kc * MR).zip((i0..i0 + mc).step_by(MR)) {
                    cancel::poll();
                    let mr = MR.min(i0 + mc - q0);
                    for (panel, p0) in pb.chunks_exact(kc * NR).zip((j0..j0 + nc).step_by(NR)) {
                        let nr = NR.min(j0 + nc - p0);
                        let at = |r: usize| (q0 + r) * sc.ld + p0;
                        let mut acc = [[zero; NR]; MR];
                        if let Some(offset) = lone_c {
                            for (r, acc_row) in acc.iter_mut().take(mr).enumerate() {
                                acc_row[..nr].copy_from_slice(&c[offset + at(r)..][..nr]);
                            }
                        }
                        kernel(kc, strip, panel, &mut acc);
                        if let Some(offset) = lone_c {
                            for (r, acc_row) in acc.iter().take(mr).enumerate() {
                                c[offset + at(r)..][..nr].copy_from_slice(&acc_row[..nr]);
                            }
                            continue;
                        }
                        for &(coef, offset) in sc.terms() {
                            for (r, acc_row) in acc.iter().take(mr).enumerate() {
                                let dst = &mut c[offset + at(r)..][..nr];
                                for (d, &v) in dst.iter_mut().zip(acc_row) {
                                    *d += coef * v;
                                }
                            }
                        }
                    }
                    tiles += mr.div_ceil(crate::MR) as u64;
                }
            }
        }
    }
    stats.pack(pack_ns);
    stats.tiles(tiles);
}

/// The portable micro-kernel, and the oracle for the `std::arch` ones:
/// `acc += strip · panel` over `kc` steps of one packed A strip and one
/// packed B micro-panel, one `a·b` product added per term.
#[inline]
fn micro<T: Scalar, const MR: usize, const NR: usize>(
    kc: usize,
    pa: &[T],
    pb: &[T],
    acc: &mut [[T; NR]; MR],
) {
    let mut tile = *acc;
    let rows: [&[T]; MR] = std::array::from_fn(|r| &pa[r * kc..][..kc]);
    for (kk, b) in pb[..kc * NR].chunks_exact(NR).enumerate() {
        for (row, a) in tile.iter_mut().zip(rows) {
            let av = a[kk];
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
mod avx2 {
    use super::{blocked, Packs, Product, MR, NR};
    use crate::Stats;
    use std::arch::x86_64::*;

    /// The loop nest around [`micro`], compiled for AVX2 and FMA as a
    /// whole, so the weighted-sum packing and the C-tile additions
    /// vectorise at the kernel's width too.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA ([`available`]).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn gemm(
        a: &[f64],
        b: &[f64],
        c: &mut [f64],
        product: &Product<f64>,
        shape: (usize, usize, usize),
        packs: &mut Packs<f64>,
        stats: &Stats,
    ) {
        // SAFETY: this function's own feature requirement.
        let kernel = |kc, pa: &[f64], pb: &[f64], acc: &mut _| unsafe { micro(kc, pa, pb, acc) };
        blocked::<f64, MR, NR>(a, b, c, product, shape, packs, stats, kernel);
    }

    /// Whether this CPU can run [`micro`] (the answer is cached by std).
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma")
    }

    /// `acc += strip · panel` with fused multiply-adds.
    ///
    /// # Safety
    /// The CPU must support AVX2 and FMA ([`available`]).
    #[target_feature(enable = "avx2,fma")]
    pub(super) unsafe fn micro(kc: usize, pa: &[f64], pb: &[f64], acc: &mut [[f64; NR]; MR]) {
        assert!(
            pa.len() >= kc * MR && pb.len() >= kc * NR,
            "packed panels shorter than kc"
        );
        // SAFETY: every row of `acc` holds NR = 8 f64s, so both 4-lane
        // loads (and the stores below) stay inside it; the feature
        // requirement is this function's own.
        let mut c = acc.map(|row| unsafe {
            [
                _mm256_loadu_pd(row.as_ptr()),
                _mm256_loadu_pd(row.as_ptr().add(4)),
            ]
        });
        let (mut a, mut b) = (pa.as_ptr(), pb.as_ptr());
        for _ in 0..kc {
            // SAFETY: the assert above gives MR rows of `kc` A values
            // and `kc` steps of NR B values; `a` advances one value and
            // `b` one step per iteration, so every read (`a` plus `r·kc`
            // for r < MR, and one step of `b`) is inside `pa` / `pb`.
            unsafe {
                let b0 = _mm256_loadu_pd(b);
                let b1 = _mm256_loadu_pd(b.add(4));
                for (r, row) in c.iter_mut().enumerate() {
                    let ar = _mm256_broadcast_sd(&*a.add(r * kc));
                    row[0] = _mm256_fmadd_pd(ar, b0, row[0]);
                    row[1] = _mm256_fmadd_pd(ar, b1, row[1]);
                }
                a = a.add(1);
                b = b.add(NR);
            }
        }
        for (row, regs) in acc.iter_mut().zip(c) {
            // SAFETY: as for the loads above.
            unsafe {
                _mm256_storeu_pd(row.as_mut_ptr(), regs[0]);
                _mm256_storeu_pd(row.as_mut_ptr().add(4), regs[1]);
            }
        }
    }
}

/// The `f64` micro-kernel on AVX-512F: the 8×16 tile is sixteen 8-lane
/// registers, and each `k` step is two B loads, eight A broadcasts and
/// sixteen fused multiply-adds (rounding contract: see the module doc).
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{blocked, Packs, Product};
    use crate::Stats;
    use std::arch::x86_64::*;

    /// Rows and columns of this kernel's tile.
    pub(super) const MR: usize = 8;
    pub(super) const NR: usize = 16;

    /// The loop nest around [`micro`], compiled for AVX-512F as a whole,
    /// so the weighted-sum packing and the C-tile additions vectorise at
    /// the kernel's width too.
    ///
    /// # Safety
    /// The CPU must support AVX-512F ([`available`]).
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn gemm(
        a: &[f64],
        b: &[f64],
        c: &mut [f64],
        product: &Product<f64>,
        shape: (usize, usize, usize),
        packs: &mut Packs<f64>,
        stats: &Stats,
    ) {
        // SAFETY: this function's own feature requirement.
        let kernel = |kc, pa: &[f64], pb: &[f64], acc: &mut _| unsafe { micro(kc, pa, pb, acc) };
        blocked::<f64, MR, NR>(a, b, c, product, shape, packs, stats, kernel);
    }

    /// Whether this CPU can run [`micro`] (the answer is cached by std).
    pub(super) fn available() -> bool {
        is_x86_feature_detected!("avx512f")
    }

    /// `acc += strip · panel` with fused multiply-adds.
    ///
    /// # Safety
    /// The CPU must support AVX-512F ([`available`]).
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn micro(kc: usize, pa: &[f64], pb: &[f64], acc: &mut [[f64; NR]; MR]) {
        assert!(
            pa.len() >= kc * MR && pb.len() >= kc * NR,
            "packed panels shorter than kc"
        );
        // SAFETY: every row of `acc` holds NR = 16 f64s, so both 8-lane
        // loads (and the stores below) stay inside it; the feature
        // requirement is this function's own.
        let mut c = acc.map(|row| unsafe {
            [
                _mm512_loadu_pd(row.as_ptr()),
                _mm512_loadu_pd(row.as_ptr().add(8)),
            ]
        });
        let (mut a, mut b) = (pa.as_ptr(), pb.as_ptr());
        for _ in 0..kc {
            // SAFETY: the assert above gives MR rows of `kc` A values
            // and `kc` steps of NR B values; `a` advances one value and
            // `b` one step per iteration, so every read (`a` plus `r·kc`
            // for r < MR, and one step of `b`) is inside `pa` / `pb`.
            unsafe {
                let b0 = _mm512_loadu_pd(b);
                let b1 = _mm512_loadu_pd(b.add(8));
                for (r, row) in c.iter_mut().enumerate() {
                    let ar = _mm512_set1_pd(*a.add(r * kc));
                    row[0] = _mm512_fmadd_pd(ar, b0, row[0]);
                    row[1] = _mm512_fmadd_pd(ar, b1, row[1]);
                }
                a = a.add(1);
                b = b.add(NR);
            }
        }
        for (row, regs) in acc.iter_mut().zip(c) {
            // SAFETY: as for the loads above.
            unsafe {
                _mm512_storeu_pd(row.as_mut_ptr(), regs[0]);
                _mm512_storeu_pd(row.as_mut_ptr().add(8), regs[1]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fmm_matrix::multiply::multiply_naive;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random(r: usize, c: usize, seed: u64) -> Matrix<i64> {
        let mut rng = StdRng::seed_from_u64(seed);
        Matrix::<i64>::random_small(r, c, &mut rng)
    }

    fn tiled<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>, threads: usize) -> Matrix<T> {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        let scratch = &mut Scratch::default();
        multiply(a, b, c.as_mut_slice(), threads, scratch, &Stats::default());
        c
    }

    /// Every kernel this CPU runs, announcing the ones it lacks.
    fn kernels_here() -> Vec<Isa> {
        for isa in Isa::ALL.into_iter().filter(|isa| !isa.available()) {
            eprintln!(
                "skipped: this CPU lacks {}, so its kernel did not run",
                isa.name()
            );
        }
        Isa::ALL.into_iter().filter(|isa| isa.available()).collect()
    }

    /// `a·b` through [`gemm_block_on`] on one kernel.
    fn on(isa: Isa, a: &Matrix<f64>, b: &Matrix<f64>) -> Matrix<f64> {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        gemm_block_on(
            isa,
            a.as_slice(),
            b.as_slice(),
            c.as_mut_slice(),
            &Product::plain(k, n),
            (m, k, n),
            &mut Packs::default(),
            &Stats::default(),
        );
        c
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
        // exactly representable, so even f64 agreement (on any micro-
        // kernel) is equality here. 66×257×130 crosses every tile edge:
        // 4- and 8-row and 8- and 16-column remainders, MC + 2 rows,
        // KC + 1 depth.
        for (m, k, n) in [(40, 33, 51), (66, 257, 130)] {
            let a = Matrix::<f64>::random_small(m, k, &mut rng);
            let b = Matrix::<f64>::random_small(k, n, &mut rng);
            let want = multiply_naive(&a, &b);
            assert_eq!(tiled(&a, &b, 1), want, "{m}x{k}x{n}");
            for isa in kernels_here() {
                assert_eq!(on(isa, &a, &b), want, "{isa:?} {m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn micro_tiles_count_four_row_units_on_every_kernel() {
        // 70 rows = one MC = 64 panel (16 units) + 6 rows (2 units), per
        // KC block: two blocks at depth 300.
        let a = Matrix::<f64>::random_small(70, 300, &mut StdRng::seed_from_u64(3));
        let b = Matrix::<f64>::random_small(300, 20, &mut StdRng::seed_from_u64(4));
        let blocks = 300usize.div_ceil(KC) as u64;
        for isa in kernels_here() {
            let stats = Stats::default();
            let mut c = Matrix::zeros(70, 20);
            gemm_block_on(
                isa,
                a.as_slice(),
                b.as_slice(),
                c.as_mut_slice(),
                &Product::plain(300, 20),
                (70, 300, 20),
                &mut Packs::default(),
                &stats,
            );
            let groups: u64 = (0..70)
                .step_by(MC)
                .map(|i0| MC.min(70 - i0).div_ceil(MR) as u64)
                .sum();
            assert_eq!(stats.report().micro_tiles, blocks * groups, "{isa:?}");
        }
    }

    /// Random packed panels for one `kc`-deep 8×16 tile (A strip
    /// `kc`×8, B micro-panel `kc`×16), plus a random starting tile:
    /// small integers when `ints`, else general floats in [-1, 1).
    fn panels(kc: usize, ints: bool, seed: u64) -> (Vec<f64>, Vec<f64>, [[f64; 16]; 8]) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut draw = || {
            if ints {
                rng.gen_range(-9i64..=9) as f64
            } else {
                rng.gen_range(-1_000_000i64..1_000_000) as f64 / 1e6 + 1e-7 / 3.0
            }
        };
        let pa = (0..kc * 8).map(|_| draw()).collect();
        let pb = (0..kc * 16).map(|_| draw()).collect();
        let mut acc = [[0.0; 16]; 8];
        for v in acc.iter_mut().flatten() {
            *v = draw();
        }
        (pa, pb, acc)
    }

    /// One kernel over the 8×16 tile of [`panels`]: a `mr`×`nr` kernel
    /// runs on each sub-tile, its sub-panels cut from the full ones.
    fn run_tiled<const R: usize, const C: usize>(
        kc: usize,
        pa: &[f64],
        pb: &[f64],
        start: &[[f64; 16]; 8],
        kernel: impl Fn(usize, &[f64], &[f64], &mut [[f64; C]; R]),
    ) -> [[f64; 16]; 8] {
        let mut out = *start;
        for r0 in (0..8).step_by(R) {
            for j0 in (0..16).step_by(C) {
                let sa = &pa[r0 * kc..(r0 + R) * kc];
                let sb: Vec<f64> = pb.chunks(16).flat_map(|s| s[j0..j0 + C].to_vec()).collect();
                let mut acc = [[0.0; C]; R];
                for (r, row) in acc.iter_mut().enumerate() {
                    row.copy_from_slice(&start[r0 + r][j0..j0 + C]);
                }
                kernel(kc, sa, &sb, &mut acc);
                for (r, row) in acc.iter().enumerate() {
                    out[r0 + r][j0..j0 + C].copy_from_slice(row);
                }
            }
        }
        out
    }

    /// Each kernel against its scalar definition, bit for bit: the
    /// portable one against `c += a·b`, the fused ones against
    /// `c = a.mul_add(b, c)`, every one in ascending `k`. So the AVX-512
    /// and AVX2 kernels agree exactly on general `f64` panels, and all
    /// three agree on integers.
    #[test]
    fn micro_kernels_agree_on_the_same_panels() {
        for kc in [1, 7, 64, KC] {
            for ints in [true, false] {
                let (pa, pb, start) = panels(kc, ints, 100 + kc as u64);
                let scalar = |fused: bool| {
                    let mut out = start;
                    for (r, row) in out.iter_mut().enumerate() {
                        for (j, cv) in row.iter_mut().enumerate() {
                            for kk in 0..kc {
                                let (a, b) = (pa[r * kc + kk], pb[kk * 16 + j]);
                                *cv = if fused {
                                    a.mul_add(b, *cv)
                                } else {
                                    *cv + a * b
                                };
                            }
                        }
                    }
                    out
                };
                let (plain, fused) = (scalar(false), scalar(true));
                if ints {
                    assert_eq!(plain, fused, "kc={kc}: integer sums must be exact");
                }
                let portable = run_tiled::<MR, NR>(kc, &pa, &pb, &start, micro::<f64, MR, NR>);
                assert_eq!(portable, plain, "portable kc={kc} ints={ints}");
                for isa in kernels_here() {
                    let got = match isa {
                        Isa::Portable => continue,
                        // SAFETY: `kernels_here` lists only kernels this
                        // CPU runs.
                        #[cfg(target_arch = "x86_64")]
                        Isa::Avx2 => {
                            run_tiled::<MR, NR>(kc, &pa, &pb, &start, |kc, a, b, acc| unsafe {
                                avx2::micro(kc, a, b, acc)
                            })
                        }
                        #[cfg(target_arch = "x86_64")]
                        Isa::Avx512 => {
                            run_tiled::<8, 16>(kc, &pa, &pb, &start, |kc, a, b, acc| unsafe {
                                avx512::micro(kc, a, b, acc)
                            })
                        }
                        #[cfg(not(target_arch = "x86_64"))]
                        _ => unreachable!("no std::arch kernel on this target"),
                    };
                    assert_eq!(got, fused, "{isa:?} kc={kc} ints={ints}");
                }
            }
        }
    }

    /// A one-term product does no arithmetic outside the kernel: on
    /// general `f64` inputs each entry of C is one chain over ascending
    /// `k` from zero, fused on the `std::arch` kernels and `c + a·b` on
    /// the portable one, even across `KC` depth blocks (C is stored and
    /// reloaded between them, which rounds nothing).
    #[test]
    fn classical_entries_are_one_ascending_chain_on_general_f64() {
        let (m, k, n) = (37, KC + 44, 21);
        let mut rng = StdRng::seed_from_u64(17);
        let mut draw = |rows, cols| {
            Matrix::<f64>::from_fn(rows, cols, |_, _| {
                rng.gen_range(-1_000_000i64..1_000_000) as f64 / 7.3e5 + 1e-9
            })
        };
        let (a, b) = (draw(m, k), draw(k, n));
        for isa in kernels_here() {
            let fused = isa != Isa::Portable;
            let want = Matrix::from_fn(m, n, |i, j| {
                (0..k).fold(0.0, |c: f64, kk| match fused {
                    true => a[(i, kk)].mul_add(b[(kk, j)], c),
                    false => c + a[(i, kk)] * b[(kk, j)],
                })
            });
            let got = on(isa, &a, &b);
            let same = got
                .as_slice()
                .iter()
                .zip(want.as_slice())
                .all(|(x, y)| x.to_bits() == y.to_bits());
            assert!(same, "{isa:?}");
        }
    }

    /// A compatible pair whose shape crosses every tile's edges: 4- and
    /// 8-row and 8- and 16-column remainders, the MC row panel, and on
    /// about half the cases the KC depth block.
    fn tile_edge_pair() -> impl Strategy<Value = (Matrix<f64>, Matrix<f64>)> {
        (
            1usize..=MC + 20,
            1usize..=24,
            proptest::bool::ANY,
            1usize..=70,
        )
            .prop_map(|(m, k, deep, n)| {
                let k = if deep { k + KC - 6 } else { k };
                let mut rng = StdRng::seed_from_u64((m * 1000 + k * 10 + n) as u64);
                (
                    Matrix::<f64>::random_small(m, k, &mut rng),
                    Matrix::<f64>::random_small(k, n, &mut rng),
                )
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn every_kernel_is_exact_on_small_integers_at_tile_edges(pair in tile_edge_pair()) {
            let (a, b) = pair;
            let want = multiply_naive(&a, &b);
            for isa in kernels_here() {
                prop_assert_eq!(on(isa, &a, &b), want.clone(), "{:?}", isa);
            }
        }
    }

    #[test]
    fn the_chosen_kernel_is_the_first_one_available() {
        let best = f64_kernel_isa();
        for (isa, name) in Isa::ALL.into_iter().zip(F64_KERNELS) {
            assert_eq!(isa.name(), name);
            if name == best {
                break;
            }
            assert!(!isa.available(), "{name} runs here but {best} was chosen");
        }
    }

    #[test]
    fn empty_dimension_yields_the_zero_shape() {
        let a = Matrix::<i64>::zeros(4, 4);
        let b = Matrix::<i64>::zeros(4, 4);
        assert_eq!(tiled(&a, &b, 1), Matrix::zeros(4, 4));
    }
}
