//! The generator behind [`Matrix::random_small`](crate::Matrix::random_small).
//!
//! Each entry is `(hi·2⁶⁴ + lo) mod 19 − 9` for the next two draws `hi`,
//! `lo` of the caller's generator: exactly what
//! `Uniform::new_inclusive(-9, 9)` draws from the same two `u64`s.
//! [`entry`] computes it without a division, in a form that vectorises.
//!
//! A [`StdRng`](rand::rngs::StdRng) with at least [`MIN_LANE_BLOCK`]
//! entries per lane is drawn as [`LANES`] jump-started
//! [`Lanes`](rand::rngs::Lanes): lane `l` fills the `l`-th of `LANES`
//! contiguous blocks, starting where the single stream would be after
//! the blocks before it, so every entry gets the two draws it would get
//! sequentially. The entries left over after `LANES` equal blocks are
//! drawn from the last lane's generator, which leaves the caller's
//! generator where `2·len` sequential draws would. The loop that steps
//! the lanes is compiled twice, for AVX-512F and for the build's
//! baseline, and [`Isa::best`] picks one at run time (no build flag). Shorter matrices and every other generator run the same loop
//! with one lane and no jump.
//!
//! What proves it byte-identical (the tests below): the multiply-shift
//! quotient against `/` for every limb sum `x` there can be, [`entry`]
//! against `%` on edge values and random pairs, the jump against
//! sequential draws (in `rand`), and the entries and the generator's
//! state afterwards against the sequential formula on every ISA this
//! CPU runs.

use crate::scalar::Scalar;
use rand::rngs::Lanes;
use rand::RngCore;
use std::mem::MaybeUninit;

/// Lanes a [`StdRng`](rand::rngs::StdRng) is split into: eight `u64`s
/// fill one AVX-512 register.
const LANES: usize = 8;

/// Entries per lane below which splitting does not pay: the seven jumps
/// cost about as much as drawing a few thousand entries sequentially.
const MIN_LANE_BLOCK: usize = 1024;

/// `2^(16k) mod 19` for the four 16-bit limbs of `lo`, and `2^(64+16k)
/// mod 19` for those of `hi`, so that `Σ weight·limb ≡ hi·2⁶⁴ + lo`
/// (mod 19). The weights sum to 72, so the sum is below 72·2¹⁶.
const LO_WEIGHTS: [u64; 4] = [1, 5, 6, 11];
const HI_WEIGHTS: [u64; 4] = [17, 9, 7, 16];

/// `⌈2²⁷/19⌉`: for every `x < 72·2¹⁶`, `(x·DIV19) >> 27 == x / 19`.
const DIV19: u64 = 7_064_091;

/// The entry two draws make: `(hi·2⁶⁴ + lo) mod 19 − 9`, by the limb
/// weights and the multiply-shift quotient above.
#[inline(always)]
fn entry(hi: u64, lo: u64) -> i32 {
    let mut x = 0;
    for k in 0..4 {
        x += HI_WEIGHTS[k] * (hi >> (16 * k) & 0xffff) + LO_WEIGHTS[k] * (lo >> (16 * k) & 0xffff);
    }
    // x < 72·2¹⁶ fits in 32 bits; saying so lets the quotient be one
    // 32×32→64-bit multiply per lane.
    let x = x as u32;
    let q = ((u64::from(x) * DIV19) >> 27) as u32;
    (x - 19 * q) as i32 - 9
}

/// Fill `out`, `out.len() / L` entries per lane (`L` must divide
/// `out.len()`): lane `l` fills the `l`-th block, each entry from two
/// calls of `draw`, so every element of `out` is written. Each step
/// writes one entry into each block, straight from the vector of `L`
/// entries.
#[inline(always)]
fn fill<T: Scalar, const L: usize>(out: &mut [MaybeUninit<T>], mut draw: impl FnMut() -> [u64; L]) {
    let block = out.len() / L;
    assert_eq!(block * L, out.len(), "lanes must fill equal blocks");
    let base = out.as_mut_ptr();
    for k in 0..block {
        let (hi, lo) = (draw(), draw());
        for l in 0..L {
            let value = T::from_i64(i64::from(entry(hi[l], lo[l])));
            // SAFETY: l < L and k < block, so the offset l·block + k is
            // below L·block, which the assert above made `out.len()`.
            // (Indexing instead puts a branch between the lanes' stores,
            // and the per-lane entry maps stop vectorising.)
            unsafe { base.add(l * block + k).write(MaybeUninit::new(value)) };
        }
    }
}

/// The instruction sets the lane loop is compiled for, best first. An
/// AVX2-only CPU runs the portable loop: an AVX2 copy would be a path
/// that no benchmark workload measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Isa {
    Avx512,
    Portable,
}

impl Isa {
    const ALL: [Isa; 2] = [Isa::Avx512, Isa::Portable];

    /// Whether this CPU runs the loop compiled for `self` (std caches the
    /// answer).
    fn available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Isa::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx512 => false,
            Isa::Portable => true,
        }
    }

    /// The best instruction set this CPU runs.
    pub(crate) fn best() -> Isa {
        Isa::ALL
            .into_iter()
            .find(|isa| isa.available())
            .unwrap_or(Isa::Portable)
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn fill_avx512<T: Scalar>(out: &mut [MaybeUninit<T>], lanes: &mut Lanes<LANES>) {
    fill(out, || lanes.next_u64s());
}

/// `len` of `random_small`'s entries drawn from `rng`, running the lanes
/// (if any) on `isa`. Panics if the CPU cannot run `isa`.
pub(crate) fn small_entries<T: Scalar>(isa: Isa, len: usize, rng: &mut impl RngCore) -> Vec<T> {
    assert!(isa.available(), "this CPU cannot run {isa:?} code");
    let mut data = Vec::with_capacity(len);
    let out = &mut data.spare_capacity_mut()[..len];
    let block = len / LANES;
    match rng.as_std_rng().filter(|_| block >= MIN_LANE_BLOCK) {
        None => fill(out, || [rng.next_u64()]),
        Some(std) => {
            let mut lanes = std.lanes::<LANES>(2 * block as u64);
            let (body, tail) = out.split_at_mut(block * LANES);
            match isa {
                // SAFETY: the assert above confirmed the CPU runs
                // AVX-512F.
                #[cfg(target_arch = "x86_64")]
                Isa::Avx512 => unsafe { fill_avx512(body, &mut lanes) },
                _ => fill(body, || lanes.next_u64s()),
            }
            *std = lanes.lane(LANES - 1);
            fill(tail, || [std.next_u64()]);
        }
    }
    // SAFETY: `fill` wrote every element of `out`, the first `len` of the
    // capacity: `body` and `tail` split it, and the one-lane fill has one
    // block.
    unsafe { data.set_len(len) };
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The sequential formula: each entry from two draws, by `%`.
    fn sequential(len: usize, rng: &mut StdRng) -> Vec<i64> {
        (0..len)
            .map(|_| {
                let (hi, lo) = (rng.next_u64(), rng.next_u64());
                ((hi % 19) * 17 + lo % 19) as i64 % 19 - 9
            })
            .collect()
    }

    #[test]
    fn multiply_shift_is_floor_division_below_the_limb_bound() {
        for x in 0..72u64 << 16 {
            assert_eq!((x * DIV19) >> 27, x / 19, "x = {x}");
        }
    }

    #[test]
    fn entry_matches_the_remainder_formula() {
        let edges = [0, 1, 18, 19, 0xffff, 0x1_0000, u64::MAX - 18, u64::MAX];
        let mut rng = StdRng::seed_from_u64(5);
        let pairs = edges
            .iter()
            .flat_map(|&hi| edges.iter().map(move |&lo| (hi, lo)))
            .chain((0..300_000).map(|_| (rng.next_u64(), rng.next_u64())));
        for (hi, lo) in pairs {
            let want = ((u128::from(hi) << 64 | u128::from(lo)) % 19) as i32 - 9;
            assert_eq!(entry(hi, lo), want, "hi {hi:#x} lo {lo:#x}");
        }
    }

    #[test]
    fn lanes_give_the_sequential_bytes_and_state_on_every_isa() {
        let shapes = (0..=70)
            .chain([255, 256, 257, 512])
            .map(|n| (n, n))
            .chain([(255, 257)]);
        for isa in Isa::ALL {
            if !isa.available() {
                eprintln!("skipped: this CPU lacks {isa:?}");
                continue;
            }
            for (rows, cols) in shapes.clone() {
                let seed = (rows * 1000 + cols) as u64;
                let mut want_rng = StdRng::seed_from_u64(seed);
                let want = sequential(rows * cols, &mut want_rng);
                let after = want_rng.next_u64();

                let mut rng = StdRng::seed_from_u64(seed);
                let ints: Vec<i64> = small_entries(isa, rows * cols, &mut rng);
                assert_eq!(ints, want, "{isa:?} i64 {rows}x{cols}");
                assert_eq!(rng.next_u64(), after, "{isa:?} state {rows}x{cols}");

                let floats: Vec<f64> =
                    small_entries(isa, rows * cols, &mut StdRng::seed_from_u64(seed));
                let bits: Vec<u64> = floats.iter().map(|v| v.to_bits()).collect();
                let want: Vec<u64> = want.iter().map(|&v| (v as f64).to_bits()).collect();
                assert_eq!(bits, want, "{isa:?} f64 {rows}x{cols}");
            }
        }
    }

    #[test]
    fn other_generators_draw_one_lane() {
        // A generator that is not a `StdRng` (here one behind a wrapper
        // that hides it) gets the same bytes, one draw at a time.
        struct Opaque(StdRng);
        impl RngCore for Opaque {
            fn next_u64(&mut self) -> u64 {
                self.0.next_u64()
            }
        }
        let mut rng = Opaque(StdRng::seed_from_u64(3));
        let out: Vec<i64> = small_entries(Isa::best(), 256 * 256, &mut rng);
        let mut want_rng = StdRng::seed_from_u64(3);
        assert_eq!(out, sequential(out.len(), &mut want_rng));
        assert_eq!(rng.0, want_rng);
    }
}
